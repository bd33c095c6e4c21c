package analytic

import (
	"math"
	"testing"
)

// fabric8 mirrors the resolved Table II fabric at 8 GB/s raw.
func fabric8() Fabric {
	return Fabric{
		EffGBps:     8 * 128.0 / 130.0,
		HeaderBytes: 24,
		PropNs:      5,
		RCNs:        150, SwitchNs: 50, EPNs: 20,
		RCIINs: 16, SwitchIINs: 10, EPIINs: 4,
		RCBufBytes: 8192, SwitchBufBytes: 2048, EPBufBytes: 16384,
	}
}

func TestStreamSerializationBound(t *testing.T) {
	// Large-payload read streams on a slow link are serialization
	// bound: interval == one TLP's wire time.
	f := fabric8()
	s := Stream{Fabric: f, PayloadBytes: 512, Read: true}
	want := f.SerNs(512 + 24)
	if got := s.IntervalNs(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("interval = %v, want ser %v", got, want)
	}
}

func TestStreamCreditCliff(t *testing.T) {
	// The paper's Fig. 4 jump: once one TLP claims more than half the
	// switch buffer, only one is in flight and the store-and-forward
	// hold time is paid serially. 1024 B packets must cost more than
	// 2x the per-byte rate of 512 B packets on the same link.
	f := fabric8()
	per512 := Stream{Fabric: f, PayloadBytes: 512, Read: true}.NsPerByte()
	per1024 := Stream{Fabric: f, PayloadBytes: 1024, Read: true}.NsPerByte()
	if per1024 < 1.5*per512 {
		t.Fatalf("credit cliff missing: 1024B %.4f ns/B vs 512B %.4f ns/B", per1024, per512)
	}
	// And the hold amortizes again at 4096 B: cost per byte improves
	// over 1024 B even though both are single-TLP-in-flight.
	per4096 := Stream{Fabric: f, PayloadBytes: 4096, Read: true}.NsPerByte()
	if per4096 > per1024 {
		t.Fatalf("oversize amortization missing: 4096B %.4f ns/B vs 1024B %.4f ns/B", per4096, per1024)
	}
}

func TestStreamSmallPacketsPayHeaderAndII(t *testing.T) {
	f := fabric8()
	per64 := Stream{Fabric: f, PayloadBytes: 64, Read: true}.NsPerByte()
	per256 := Stream{Fabric: f, PayloadBytes: 256, Read: true}.NsPerByte()
	if per64 <= per256 {
		t.Fatalf("64B packets should cost more per byte than 256B: %.4f vs %.4f", per64, per256)
	}
}

func TestStreamMemoryBound(t *testing.T) {
	f := fabric8()
	f.EffGBps = 64 // fast link
	s := Stream{Fabric: f, PayloadBytes: 256, Read: true, MemGBps: 2}
	if got, want := s.IntervalNs(), 128.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("memory-bound interval = %v, want %v", got, want)
	}
}

func TestStreamWindowBound(t *testing.T) {
	f := fabric8()
	s := Stream{Fabric: f, PayloadBytes: 4096, Read: true, WindowBytes: 4096, MemLatNs: 50}
	// One burst in flight: interval = full round trip.
	if got, want := s.IntervalNs(), s.RoundTripNs(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("window-bound interval = %v, want RTT %v", got, want)
	}
}

func TestRoundTripCoversBothDirections(t *testing.T) {
	f := fabric8()
	s := Stream{Fabric: f, PayloadBytes: 256, Read: true, MemLatNs: 40}
	rtt := s.RoundTripNs()
	min := f.RCNs + f.SwitchNs + f.EPNs // one direction's processing alone
	if rtt <= 2*min {
		t.Fatalf("RTT %v implausibly small (hops alone are %v per direction)", rtt, min)
	}
}

func TestGEMMModelComputeBound(t *testing.T) {
	g := GEMMModel{
		TilesM: 4, TilesN: 4, RBTiles: 4,
		APanelBytes: 4096, BPanelBytes: 4096, TileCBytes: 1024,
		PerTileNs:     1000,
		ReadNsPerByte: 0.001, WriteNsPerByte: 0.001,
	}
	// Compute dominates: 4 panels x 4 tiles x 1us ~ 16us plus loads.
	got := g.ExecNs()
	if got < 16000 {
		t.Fatalf("ExecNs = %v, below pure compute floor", got)
	}
	if got > 18000 {
		t.Fatalf("ExecNs = %v, too far above compute floor for fast streams", got)
	}
}

func TestGEMMModelTransferBound(t *testing.T) {
	fast := GEMMModel{
		TilesM: 4, TilesN: 4, RBTiles: 4,
		APanelBytes: 4096, BPanelBytes: 4096, TileCBytes: 1024,
		PerTileNs:     10,
		ReadNsPerByte: 0.5, WriteNsPerByte: 0.5,
	}
	slow := fast
	slow.ReadNsPerByte = 1.0
	if !(slow.ExecNs() > 1.5*fast.ExecNs()) {
		t.Fatalf("transfer-bound model not scaling with stream cost: %v vs %v",
			slow.ExecNs(), fast.ExecNs())
	}
}

func TestGEMMModelUpstreamIIFloor(t *testing.T) {
	g := GEMMModel{
		TilesM: 1, TilesN: 2, RBTiles: 1,
		APanelBytes: 256, BPanelBytes: 4096, TileCBytes: 1024,
		PerTileNs:     1,
		ReadNsPerByte: 0.001, WriteNsPerByte: 0.001,
		UpIINs: 16, ReadBurstBytes: 256, WriteBurstBytes: 256,
	}
	// Per panel: 16 read requests + 4 write TLPs = 20 x 16 ns = 320 ns,
	// far above the compute and stream terms.
	without := g
	without.UpIINs = 0
	if !(g.ExecNs() > without.ExecNs()+300) {
		t.Fatalf("upstream II floor missing: %v vs %v", g.ExecNs(), without.ExecNs())
	}
}
