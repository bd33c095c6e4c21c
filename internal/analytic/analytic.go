// Package analytic implements the paper's closed-form models: the
// roofline of Section V.A (Fig. 2) and the GEMM/Non-GEMM composition
// model of Section V.D.2 (Fig. 9) with its DevMem-vs-PCIe crossover.
package analytic

import "fmt"

// Roofline models the accelerator system of Fig. 2: execution time is
// the maximum of the compute ramp (tiles x per-tile time) and the
// data-transfer floor.
type Roofline struct {
	// Tiles is the number of output tiles in the workload.
	Tiles int
	// TransferNs is the memory/PCIe-bound execution floor.
	TransferNs float64
}

// KneeNs returns the per-tile compute time at which the system moves
// between the compute-bound ramp and the transfer-bound plateau.
func (r Roofline) KneeNs() float64 {
	if r.Tiles == 0 {
		return 0
	}
	return r.TransferNs / float64(r.Tiles)
}

// Config holds the measured unit times of one system configuration for
// the composition model: the time to execute the reference workload's
// GEMM portion and Non-GEMM portion in isolation.
type Config struct {
	Name     string
	GEMMNs   float64 // time for the all-GEMM workload
	NonGEMMs float64 // time for the all-Non-GEMM workload
}

// Composition is the paper's total-time model:
//
//	T(w) = TOther + (1-w) * GEMMNs + w * NonGEMMs
//
// where w is the Non-GEMM workload fraction (Fig. 9's x-axis).
type Composition struct {
	TOtherNs float64
}

// TimeNs evaluates the model for configuration c at Non-GEMM fraction
// w in [0,1].
func (m Composition) TimeNs(c Config, w float64) float64 {
	if w < 0 || w > 1 {
		panic(fmt.Sprintf("analytic: fraction %v outside [0,1]", w))
	}
	return m.TOtherNs + (1-w)*c.GEMMNs + w*c.NonGEMMs
}

// Crossover returns the Non-GEMM fraction at which configurations a
// and b have equal modeled time, and whether it lies inside (0,1).
// Below the crossover the configuration with the smaller GEMM time
// wins; above it the one with the smaller Non-GEMM time wins.
func (m Composition) Crossover(a, b Config) (float64, bool) {
	dg := b.GEMMNs - a.GEMMNs     // a's GEMM advantage
	dn := a.NonGEMMs - b.NonGEMMs // a's Non-GEMM penalty
	den := dg + dn
	if den == 0 {
		return 0, false
	}
	w := dg / den
	return w, w > 0 && w < 1
}
