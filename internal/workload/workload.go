// Package workload defines the evaluation workloads: plain GEMM
// kernels (Figs. 2-6, Table IV) and Vision Transformer encoder graphs
// decomposed into GEMM and Non-GEMM operators (Figs. 7-9), following
// the paper's split where GEMMs are offloaded to the accelerator and
// everything else (layernorm, softmax, GELU, residuals, data
// marshalling) runs on the CPU.
package workload

// Tokens is the ViT sequence length: 196 patches + class token,
// padded to the systolic array tile (16): 208.
const (
	RawTokens = 197
	Tokens    = 208
)

// GEMMJob is a matrix multiplication offloaded to the accelerator:
// C[M x N] = A[M x K] x B[K x N]. Dimensions are multiples of 16.
type GEMMJob struct {
	Name    string
	M, N, K int
}

// MACs returns the multiply-accumulate count.
func (g GEMMJob) MACs() uint64 { return uint64(g.M) * uint64(g.N) * uint64(g.K) }

// NonGEMMOp is a CPU-resident operator with streaming memory traffic
// and a compute budget.
type NonGEMMOp struct {
	Name          string
	ReadBytes     int
	WriteBytes    int
	ComputeCycles uint64
}

// Item is one step of a workload graph: exactly one of GEMM / CPU is
// set.
type Item struct {
	GEMM *GEMMJob
	CPU  *NonGEMMOp
}

// Graph is an operator sequence plus a layer multiplier: transformer
// encoder layers are architecturally identical, so one layer is
// simulated and scaled.
type Graph struct {
	Name   string
	Items  []Item
	Layers int
}

// GEMMs returns the GEMM items in order.
func (g Graph) GEMMs() []GEMMJob {
	var out []GEMMJob
	for _, it := range g.Items {
		if it.GEMM != nil {
			out = append(out, *it.GEMM)
		}
	}
	return out
}

// TotalMACs returns the GEMM work of the full model (all layers).
func (g Graph) TotalMACs() uint64 {
	var m uint64
	for _, j := range g.GEMMs() {
		m += j.MACs()
	}
	return m * uint64(g.Layers)
}

// ViTVariant selects a Vision Transformer model size.
type ViTVariant struct {
	Name   string
	Hidden int // D
	Heads  int // H
	Layers int // L
	MLP    int // expansion factor
}

// The paper's three ViT models (Section IV.B): hidden 768/1024/1280,
// 12 or 16 heads.
var (
	ViTBase  = ViTVariant{Name: "ViT-Base", Hidden: 768, Heads: 12, Layers: 12, MLP: 4}
	ViTLarge = ViTVariant{Name: "ViT-Large", Hidden: 1024, Heads: 16, Layers: 24, MLP: 4}
	ViTHuge  = ViTVariant{Name: "ViT-Huge", Hidden: 1280, Heads: 16, Layers: 32, MLP: 4}
)

// Variants lists the evaluated models in paper order.
func Variants() []ViTVariant { return []ViTVariant{ViTBase, ViTLarge, ViTHuge} }

// Cycles-per-element costs for the CPU operators. Non-GEMM transformer
// operators are memory-bound on real hardware (NonGEMM Bench, the
// paper's ref. [20]): a SIMD core retires several elements per cycle,
// so the per-element budgets stay small and streaming traffic
// dominates — which is what exposes the DevMem NUMA penalty of Fig. 8.
const (
	cpeLayerNorm = 3
	cpeSoftmax   = 5
	cpeGELU      = 4
	cpeAdd       = 1
	cpeMarshal   = 1
)

func elemOp(name string, elems int, cpe int, passes int) Item {
	return Item{CPU: &NonGEMMOp{
		Name:          name,
		ReadBytes:     passes * elems * 4,
		WriteBytes:    elems * 4,
		ComputeCycles: uint64(elems) * uint64(cpe),
	}}
}

func gemm(name string, m, n, k int) Item {
	return Item{GEMM: &GEMMJob{Name: name, M: m, N: n, K: k}}
}

// ViT builds one encoder layer of the given variant as an Item graph
// with the layer count as multiplier. Attention head GEMMs are batched
// into one equivalent-work job, as MatrixFlow's driver does.
func ViT(v ViTVariant) Graph {
	t := Tokens
	d := v.Hidden
	dh := d / v.Heads
	var items []Item

	items = append(items,
		elemOp("ln1", t*d, cpeLayerNorm, 2),
		gemm("qkv", t, 3*d, d),
		elemOp("qkv_reshape", t*3*d, cpeMarshal, 1),
		gemm("attn_scores", t, v.Heads*t, dh),
		elemOp("softmax", v.Heads*t*t, cpeSoftmax, 2),
		gemm("attn_av", t, d, t),
		elemOp("attn_reshape", t*d, cpeMarshal, 1),
		gemm("attn_proj", t, d, d),
		elemOp("residual1", t*d, cpeAdd, 2),
		elemOp("ln2", t*d, cpeLayerNorm, 2),
		gemm("mlp1", t, v.MLP*d, d),
		elemOp("gelu", t*v.MLP*d, cpeGELU, 1),
		gemm("mlp2", t, d, v.MLP*d),
		elemOp("residual2", t*d, cpeAdd, 2),
	)
	return Graph{Name: v.Name, Items: items, Layers: v.Layers}
}
