// Package dram implements a bank-level DRAM timing model in the spirit
// of Ramulator2/DRAMsim3, which the paper uses as external memory
// simulators. Channels, ranks are folded into bank groups/banks; each
// bank runs a row-buffer state machine constrained by the JEDEC core
// timing parameters, and each channel schedules requests FR-FCFS with
// write draining.
//
// Per-technology presets reproduce Table III of the paper (channels,
// data width, data rate, peak bandwidth) with representative core
// timings for each standard.
package dram

import (
	"fmt"

	"accesys/internal/sim"
)

// Spec describes one DRAM technology configuration. Timing fields are
// in memory-clock cycles; the memory clock runs at DataRateMTs/2 MHz
// (double data rate).
type Spec struct {
	Name string

	// Geometry.
	Channels      int
	ChannelBits   int    // data bus width per channel in bits
	Ranks         int    // modeled as extra bank parallelism
	BankGroups    int    // per rank
	BanksPerGroup int    // per group
	RowBytes      uint64 // row buffer size per bank
	BurstLength   int    // transfers per burst (BL)

	// Data rate in mega-transfers per second per pin.
	DataRateMTs int

	// Core timings, in memory-clock cycles.
	CL   int // read column to data
	CWL  int // write column to data
	RCD  int // activate to column
	RP   int // precharge to activate
	RAS  int // activate to precharge
	RC   int // activate to activate, same bank
	WR   int // write recovery (data end to precharge)
	RTP  int // read to precharge
	CCD  int // column to column (burst gap)
	RRD  int // activate to activate, different banks
	FAW  int // four-activate window
	WTR  int // write-to-read turnaround
	RTW  int // read-to-write turnaround
	REFI int // refresh interval
	RFC  int // refresh cycle time

	// CapacityPerChannel in bytes.
	CapacityPerChannel uint64
}

// TCK returns the memory clock period.
func (s Spec) TCK() sim.Tick {
	// DataRate MT/s => clock = rate/2 MHz => period ps = 2e6/rate.
	return sim.Tick(2e6/float64(s.DataRateMTs) + 0.5)
}

// BurstBytes returns the bytes moved by one burst on one channel.
func (s Spec) BurstBytes() int { return s.BurstLength * s.ChannelBits / 8 }

// BurstTicks returns the data-bus occupancy of one burst.
func (s Spec) BurstTicks() sim.Tick {
	return sim.Tick(s.BurstLength/2) * s.TCK()
}

// BanksPerChannel returns the total independent banks in one channel.
func (s Spec) BanksPerChannel() int { return s.Ranks * s.BankGroups * s.BanksPerGroup }

// Cycles converts a cycle count to ticks for this spec.
func (s Spec) Cycles(n int) sim.Tick { return sim.Tick(n) * s.TCK() }

// AccessLatencyNs returns a representative random-access latency in
// nanoseconds — activate, column access, and one data burst — the
// closed-bank service time analytic models use as the memory fill
// term.
func (s Spec) AccessLatencyNs() float64 {
	return (s.Cycles(s.RCD + s.CL).Nanoseconds()) + s.BurstTicks().Nanoseconds()
}

// StreamBandwidthGBps returns the sustainable row-hit streaming
// bandwidth: consecutive column bursts are spaced by the larger of the
// data-bus occupancy and the column-to-column constraint tCCD, so
// specs whose tCCD exceeds the burst time (e.g. LPDDR5) sustain less
// than their pin-rate peak.
func (s Spec) StreamBandwidthGBps() float64 {
	gap := s.BurstTicks()
	if ccd := s.Cycles(s.CCD); ccd > gap {
		gap = ccd
	}
	return float64(s.Channels) * float64(s.BurstBytes()) / gap.Nanoseconds()
}

// InterleavedStreamGBps returns the sustainable bandwidth when
// several sequential streams interleave on the channel (a multi-channel
// DMA plus CPU traffic): each row's worth of data additionally pays one
// precharge + activate, because the interleaving breaks pure row-hit
// locality at row granularity.
func (s Spec) InterleavedStreamGBps() float64 {
	rowNs := float64(s.RowBytes) / s.StreamBandwidthGBps() * float64(s.Channels)
	actNs := s.Cycles(s.RP + s.RCD).Nanoseconds()
	return float64(s.Channels) * float64(s.RowBytes) / (rowNs + actNs)
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	switch {
	case s.Channels <= 0 || s.ChannelBits <= 0 || s.DataRateMTs <= 0:
		return fmt.Errorf("dram: %s: geometry/rate must be positive", s.Name)
	case s.BurstLength < 2 || s.BurstLength%2 != 0:
		return fmt.Errorf("dram: %s: burst length must be even and >= 2", s.Name)
	case s.BanksPerChannel() <= 0:
		return fmt.Errorf("dram: %s: needs at least one bank", s.Name)
	case s.RowBytes == 0 || s.RowBytes%uint64(s.BurstBytes()) != 0:
		return fmt.Errorf("dram: %s: row bytes must be a burst multiple", s.Name)
	case s.CL <= 0 || s.RCD <= 0 || s.RP <= 0 || s.RAS <= 0 || s.RC <= 0:
		return fmt.Errorf("dram: %s: core timings must be positive", s.Name)
	case s.RC < s.RAS+s.RP:
		return fmt.Errorf("dram: %s: tRC must cover tRAS+tRP", s.Name)
	case s.CapacityPerChannel == 0:
		return fmt.Errorf("dram: %s: zero capacity", s.Name)
	}
	return nil
}

// Presets reproducing the paper's Table III configurations. Peak
// bandwidths: DDR3 12.8, DDR4 19.2, DDR5 25.6, HBM2 64, GDDR6 32 GB/s;
// LPDDR5 (used in Fig. 5) and GDDR5 are added alongside.
var (
	// DDR3_1600: 1 channel x 64-bit, 1600 MT/s = 12.8 GB/s.
	DDR3_1600 = Spec{
		Name: "DDR3-1600", Channels: 1, ChannelBits: 64, Ranks: 2,
		BankGroups: 1, BanksPerGroup: 8, RowBytes: 2048, BurstLength: 8,
		DataRateMTs: 1600,
		CL:          11, CWL: 8, RCD: 11, RP: 11, RAS: 28, RC: 39, WR: 12,
		RTP: 6, CCD: 4, RRD: 5, FAW: 32, WTR: 6, RTW: 8,
		REFI: 6240, RFC: 208, // 7.8us / 260ns at 1.25ns tCK
		CapacityPerChannel: 4 << 30,
	}

	// DDR4_2400: 1 channel x 64-bit, 2400 MT/s = 19.2 GB/s.
	DDR4_2400 = Spec{
		Name: "DDR4-2400", Channels: 1, ChannelBits: 64, Ranks: 2,
		BankGroups: 4, BanksPerGroup: 4, RowBytes: 1024, BurstLength: 8,
		DataRateMTs: 2400,
		CL:          17, CWL: 12, RCD: 17, RP: 17, RAS: 39, RC: 56, WR: 18,
		RTP: 9, CCD: 4, RRD: 6, FAW: 26, WTR: 9, RTW: 10,
		REFI: 9360, RFC: 420, // 7.8us / 350ns at 0.833ns tCK
		CapacityPerChannel: 8 << 30,
	}

	// DDR5_3200: 2 channels x 32-bit, 3200 MT/s = 25.6 GB/s.
	DDR5_3200 = Spec{
		Name: "DDR5-3200", Channels: 2, ChannelBits: 32, Ranks: 2,
		BankGroups: 8, BanksPerGroup: 4, RowBytes: 1024, BurstLength: 16,
		DataRateMTs: 3200,
		CL:          26, CWL: 24, RCD: 26, RP: 26, RAS: 52, RC: 78, WR: 48,
		RTP: 12, CCD: 8, RRD: 8, FAW: 32, WTR: 12, RTW: 14,
		REFI: 12480, RFC: 472,
		CapacityPerChannel: 8 << 30,
	}

	// LPDDR5_6400: 1 channel x 32-bit, 6400 MT/s = 25.6 GB/s, slower
	// core timings typical of low-power parts.
	LPDDR5_6400 = Spec{
		Name: "LPDDR5-6400", Channels: 1, ChannelBits: 32, Ranks: 1,
		BankGroups: 4, BanksPerGroup: 4, RowBytes: 2048, BurstLength: 16,
		DataRateMTs: 6400,
		CL:          40, CWL: 22, RCD: 29, RP: 34, RAS: 67, RC: 101, WR: 55,
		RTP: 24, CCD: 16, RRD: 16, FAW: 64, WTR: 22, RTW: 24,
		REFI: 12480, RFC: 672,
		CapacityPerChannel: 4 << 30,
	}

	// GDDR5_2000: 2 channels x 64-bit, 2000 MT/s = 32 GB/s.
	GDDR5_2000 = Spec{
		Name: "GDDR5-2000", Channels: 2, ChannelBits: 64, Ranks: 1,
		BankGroups: 4, BanksPerGroup: 4, RowBytes: 2048, BurstLength: 8,
		DataRateMTs: 2000,
		CL:          14, CWL: 10, RCD: 14, RP: 14, RAS: 32, RC: 46, WR: 16,
		RTP: 8, CCD: 4, RRD: 6, FAW: 24, WTR: 8, RTW: 10,
		REFI: 7800, RFC: 260,
		CapacityPerChannel: 2 << 30,
	}

	// GDDR6_2000: Table III row — 2 channels x 64-bit, 2000 MT/s = 32 GB/s.
	GDDR6_2000 = Spec{
		Name: "GDDR6-2000", Channels: 2, ChannelBits: 64, Ranks: 1,
		BankGroups: 4, BanksPerGroup: 4, RowBytes: 2048, BurstLength: 16,
		DataRateMTs: 2000,
		CL:          12, CWL: 8, RCD: 12, RP: 12, RAS: 28, RC: 40, WR: 14,
		RTP: 6, CCD: 8, RRD: 6, FAW: 20, WTR: 7, RTW: 9,
		REFI: 7800, RFC: 260,
		CapacityPerChannel: 2 << 30,
	}

	// HBM2_2000: Table III row — 2 channels x 128-bit, 2000 MT/s = 64 GB/s.
	HBM2_2000 = Spec{
		Name: "HBM2-2000", Channels: 2, ChannelBits: 128, Ranks: 1,
		BankGroups: 4, BanksPerGroup: 4, RowBytes: 1024, BurstLength: 4,
		DataRateMTs: 2000,
		CL:          14, CWL: 4, RCD: 14, RP: 14, RAS: 33, RC: 47, WR: 16,
		RTP: 6, CCD: 2, RRD: 4, FAW: 16, WTR: 8, RTW: 9,
		REFI: 3900, RFC: 260,
		CapacityPerChannel: 4 << 30,
	}
)

// SpecByName returns a preset by its Name field.
func SpecByName(name string) (Spec, bool) {
	for _, s := range []Spec{DDR3_1600, DDR4_2400, DDR5_3200, LPDDR5_6400, GDDR5_2000, GDDR6_2000, HBM2_2000} {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
