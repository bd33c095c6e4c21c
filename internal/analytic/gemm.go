package analytic

// Closed-form execution model of the MatrixFlow GEMM pipeline: the
// accelerator loads an A block per row-block, then for each B panel
// overlaps tile computation with the prefetch of the next panel while
// C tiles drain concurrently on the write path. Phase algebra over
// those overlapped streams gives execution time without an event
// queue — the analytic backend the equivalence harness compares the
// timing simulation against.

// GEMMModel carries the resolved blocking geometry and per-stream
// costs of one GEMM job on one system configuration. Times are
// nanoseconds; streams are expressed as steady-state ns/byte plus a
// fill latency for the first burst.
type GEMMModel struct {
	// Blocking geometry (mirrors the accelerator's job setup).
	TilesM, TilesN int
	RBTiles        int // A-block height in tiles
	APanelBytes    int
	BPanelBytes    int
	TileCBytes     int

	// PerTileNs is the systolic array time per output tile.
	PerTileNs float64

	// Operand read stream (A blocks, B panels) and C write stream.
	ReadNsPerByte  float64
	WriteNsPerByte float64
	// ReadFillNs is the first-burst latency of a read stream (pipeline
	// fill before steady state).
	ReadFillNs float64
	// StartNs is the DMA descriptor start latency, paid once per
	// transfer.
	StartNs float64

	// MemGBps, when positive, bounds each panel step by the shared
	// memory system serving both the operand reads and the C writes.
	MemGBps float64

	// Upstream TLP pipeline: every operand-read request and every C
	// write crosses the same bridges toward the host, one TLP per
	// initiation interval. UpIINs is the largest per-hop II on that
	// direction; ReadBurstBytes/WriteBurstBytes give the TLP counts
	// (zero UpIINs disables the bound — the DevMem path has no fabric).
	UpIINs          float64
	ReadBurstBytes  int
	WriteBurstBytes int

	// FixedNs is the job-level overhead outside the streaming pipeline
	// (driver setup, doorbell, MSI and interrupt path).
	FixedNs float64
}

// upstreamIINs returns the upstream-pipeline floor for moving
// readBytes of requests plus writeBytes of posted writes: one TLP per
// initiation interval.
func (g GEMMModel) upstreamIINs(readBytes, writeBytes int) float64 {
	if g.UpIINs == 0 {
		return 0
	}
	tlps := ceilDiv(readBytes, g.ReadBurstBytes) + ceilDiv(writeBytes, g.WriteBurstBytes)
	return float64(tlps) * g.UpIINs
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// ExecNs returns the modeled end-to-end execution time.
func (g GEMMModel) ExecNs() float64 {
	total := g.FixedNs
	for rb := 0; rb < g.TilesM; rb += g.RBTiles {
		rbCount := g.RBTiles
		if rb+rbCount > g.TilesM {
			rbCount = g.TilesM - rb
		}
		// Serial A-block load.
		aBytes := rbCount * g.APanelBytes
		aLoad := float64(aBytes) * g.ReadNsPerByte
		if ii := g.upstreamIINs(aBytes, 0); ii > aLoad {
			aLoad = ii
		}
		total += g.StartNs + g.ReadFillNs + aLoad
		// Serial first B panel.
		bLoad := float64(g.BPanelBytes) * g.ReadNsPerByte
		if ii := g.upstreamIINs(g.BPanelBytes, 0); ii > bLoad {
			bLoad = ii
		}
		tPanel := g.StartNs + g.ReadFillNs + bLoad
		total += tPanel
		// Each subsequent panel prefetches under the current panel's
		// compute; C tiles drain concurrently on the write path. The
		// per-panel step is whichever stream is slowest, including the
		// far memory system both streams share.
		tComp := float64(rbCount) * g.PerTileNs
		tWrite := float64(rbCount*g.TileCBytes) * g.WriteNsPerByte
		step := tComp
		if tWrite > step {
			step = tWrite
		}
		if g.MemGBps > 0 {
			tMem := float64(g.BPanelBytes+rbCount*g.TileCBytes) / g.MemGBps
			if tMem > step {
				step = tMem
			}
		}
		// Upstream pipeline: the next panel's read requests and this
		// panel's C writes share the toward-host TLP pipeline.
		if ii := g.upstreamIINs(g.BPanelBytes, rbCount*g.TileCBytes); ii > step {
			step = ii
		}
		stepOrPanel := step
		if tPanel > stepOrPanel {
			stepOrPanel = tPanel
		}
		if g.TilesN > 1 {
			total += float64(g.TilesN-1) * stepOrPanel
		}
		// The final panel computes with nothing left to prefetch.
		total += step
	}
	return total
}
