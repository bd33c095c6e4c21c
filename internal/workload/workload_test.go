package workload

import "testing"

func TestTokensPadded(t *testing.T) {
	if Tokens != 208 || Tokens%16 != 0 {
		t.Fatalf("Tokens = %d, want 208 (197 padded to 16)", Tokens)
	}
}

func TestVariantsMatchPaper(t *testing.T) {
	// Section IV.B: hidden 768/1024/1280, 12 or 16 heads.
	if ViTBase.Hidden != 768 || ViTBase.Heads != 12 || ViTBase.Layers != 12 {
		t.Fatalf("ViT-Base = %+v", ViTBase)
	}
	if ViTLarge.Hidden != 1024 || ViTLarge.Heads != 16 || ViTLarge.Layers != 24 {
		t.Fatalf("ViT-Large = %+v", ViTLarge)
	}
	if ViTHuge.Hidden != 1280 || ViTHuge.Heads != 16 || ViTHuge.Layers != 32 {
		t.Fatalf("ViT-Huge = %+v", ViTHuge)
	}
}

func TestViTGraphShape(t *testing.T) {
	g := ViT(ViTBase)
	gemms := g.GEMMs()
	if len(gemms) != 6 {
		t.Fatalf("expected 6 GEMMs per layer, got %d", len(gemms))
	}
	// All dimensions must be tileable by 16.
	for _, j := range gemms {
		if j.M%16 != 0 || j.N%16 != 0 || j.K%16 != 0 {
			t.Fatalf("GEMM %s has non-tileable dims %dx%dx%d", j.Name, j.M, j.N, j.K)
		}
	}
	// QKV projection: T x 3D x D.
	if gemms[0].Name != "qkv" || gemms[0].N != 3*768 || gemms[0].K != 768 {
		t.Fatalf("qkv = %+v", gemms[0])
	}
	cpuOps := 0
	for _, it := range g.Items {
		if it.CPU != nil {
			cpuOps++
		}
	}
	if cpuOps != 8 {
		t.Fatalf("expected 8 Non-GEMM ops per layer, got %d", cpuOps)
	}
}

func TestAttentionBatchingPreservesWork(t *testing.T) {
	// Batched attn_scores must equal H x (T x T x dh) MACs.
	g := ViT(ViTBase)
	var scores GEMMJob
	for _, j := range g.GEMMs() {
		if j.Name == "attn_scores" {
			scores = j
		}
	}
	dh := 768 / 12
	want := uint64(12) * uint64(Tokens) * uint64(Tokens) * uint64(dh)
	if scores.MACs() != want {
		t.Fatalf("attn_scores MACs = %d, want %d", scores.MACs(), want)
	}
}

func TestModelOrderingBySize(t *testing.T) {
	b, l, h := ViT(ViTBase), ViT(ViTLarge), ViT(ViTHuge)
	if !(b.TotalMACs() < l.TotalMACs() && l.TotalMACs() < h.TotalMACs()) {
		t.Fatalf("MAC ordering violated: %d %d %d", b.TotalMACs(), l.TotalMACs(), h.TotalMACs())
	}
}

func TestSquare(t *testing.T) {
	j := GEMMJob{M: 1024, N: 1024, K: 1024}
	if j.MACs() != 1<<30 {
		t.Fatalf("MACs = %d", j.MACs())
	}
}

func TestGEMMFractionHigh(t *testing.T) {
	// Transformer layers are GEMM-dominated in raw work: the fraction
	// of MACs + Non-GEMM element cycles that is GEMM MACs.
	var gemmWork, cpuWork float64
	for _, it := range ViT(ViTBase).Items {
		if it.GEMM != nil {
			gemmWork += float64(it.GEMM.MACs())
		} else {
			cpuWork += float64(it.CPU.ComputeCycles)
		}
	}
	f := gemmWork / (gemmWork + cpuWork)
	if f < 0.8 || f >= 1 {
		t.Fatalf("GEMM work fraction = %.3f, want 0.8..1", f)
	}
}
