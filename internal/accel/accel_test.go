package accel

import (
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"accesys/internal/mem"
	"accesys/internal/memtest"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

func randMat(rng *rand.Rand, n int) []int32 {
	m := make([]int32, n)
	for i := range m {
		m[i] = int32(rng.Intn(17) - 8)
	}
	return m
}

func TestPackUnpackRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m, k, n = 32, 48, 64
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	c := MatMulRef(a, b, m, k, n)

	// Pack C through the tile encoder path: pack/unpack must be
	// inverse for arbitrary data.
	packed := make([]byte, PackedCSize(m, n))
	tilesN := n / Dim
	for p := 0; p < m/Dim; p++ {
		for q := 0; q < tilesN; q++ {
			tile := make([]int32, Dim*Dim)
			for i := 0; i < Dim; i++ {
				for j := 0; j < Dim; j++ {
					tile[i*Dim+j] = c[(p*Dim+i)*n+q*Dim+j]
				}
			}
			copy(packed[(p*tilesN+q)*TileCBytes:], encodeTile(tile))
		}
	}
	got := UnpackC(packed, m, n)
	for i := range c {
		if got[i] != c[i] {
			t.Fatalf("unpack mismatch at %d", i)
		}
	}
}

func TestBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{16, 48, 128} {
		aP := randMat(rng, k*Dim)
		bP := randMat(rng, k*Dim)
		c1 := make([]int32, Dim*Dim)
		c2 := make([]int32, Dim*Dim)
		TileModel{}.ComputeTile(aP, bP, k, c1)
		CycleModel{}.ComputeTile(aP, bP, k, c2)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("k=%d: cycle model disagrees with tile model at %d: %d vs %d", k, i, c2[i], c1[i])
			}
		}
	}
}

func TestBackendCycles(t *testing.T) {
	if (TileModel{}).TileCycles(1024) != 1024+32 {
		t.Fatalf("tile model cycles = %d", (TileModel{}).TileCycles(1024))
	}
	if (CycleModel{}).TileCycles(64) != 64+31 {
		t.Fatalf("cycle model cycles = %d", (CycleModel{}).TileCycles(64))
	}
}

// Property: packed panel views feed the backend to the same result as
// the reference GEMM.
func TestPackedGEMMProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 16, 16*(1+rng.Intn(4)), 32
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		want := MatMulRef(a, b, m, k, n)

		pa := PackA(a, m, k)
		pb := PackB(b, k, n)
		for q := 0; q < n/Dim; q++ {
			aPanel := decodePanel(pa, k)
			bPanel := decodePanel(pb[q*BPanelBytes(k):], k)
			c := make([]int32, Dim*Dim)
			TileModel{}.ComputeTile(aPanel, bPanel, k, c)
			for i := 0; i < Dim; i++ {
				for j := 0; j < Dim; j++ {
					if c[i*Dim+j] != want[i*n+q*Dim+j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// harness wires a MatrixFlow against flat echo memories for both the
// host path and the device path, with a CSR poker.
type harness struct {
	eq      *sim.EventQueue
	mf      *MatrixFlow
	hostMem *memtest.EchoResponder
	devMem  *memtest.EchoResponder
	csr     *memtest.Requestor
	done    []JobResult
}

const (
	barBase = 0x1000_0000
	memSize = 1 << 23
)

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	eq := sim.NewEventQueue()
	reg := stats.NewRegistry()
	cfg.BAR = mem.Range(barBase, 1<<16)
	if cfg.Backend == nil {
		cfg.Backend = TileModel{}
	}
	mf := New("mf", eq, mem.NewPackets(), reg, cfg)

	h := &harness{eq: eq, mf: mf}
	h.hostMem = memtest.NewEchoResponder(eq, 0, memSize, 50*sim.Nanosecond)
	mem.Bind(mf.HostDMAPort(), h.hostMem.Port)
	h.devMem = memtest.NewEchoResponder(eq, 0x40_0000, memSize, 15*sim.Nanosecond)
	mem.Bind(mf.DevDMAPort(), h.devMem.Port)
	h.csr = memtest.NewRequestor(eq)
	mem.Bind(h.csr.Port, mf.CSRPort())
	mf.OnDone = func(r JobResult) { h.done = append(h.done, r) }
	return h
}

func (h *harness) writeReg(off uint64, v uint64) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, v)
	h.csr.Send(mem.NewWrite(barBase+off, buf))
}

func (h *harness) launch(aAddr, bAddr, cAddr uint64, m, n, k int, mode int) {
	h.writeReg(RegAAddr, aAddr)
	h.writeReg(RegBAddr, bAddr)
	h.writeReg(RegCAddr, cAddr)
	h.writeReg(RegM, uint64(m))
	h.writeReg(RegN, uint64(n))
	h.writeReg(RegK, uint64(k))
	h.writeReg(RegMSIAddr, 0x7000)
	h.writeReg(RegMode, uint64(mode))
	h.writeReg(RegCtrl, 1)
}

func TestGEMMEndToEnd(t *testing.T) {
	h := newHarness(t, Config{Functional: true})
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 64, 64, 64
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	want := MatMulRef(a, b, m, k, n)

	h.hostMem.Store.Write(0x10000, PackA(a, m, k))
	h.hostMem.Store.Write(0x80000, PackB(b, k, n))
	h.launch(0x10000, 0x80000, 0x100000, m, n, k, ModeHost)
	h.eq.Run()

	if len(h.done) != 1 {
		t.Fatal("job did not complete")
	}
	cbuf := make([]byte, PackedCSize(m, n))
	h.hostMem.Store.Read(0x100000, cbuf)
	got := UnpackC(cbuf, m, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.mf.Status() != StatusDone {
		t.Fatalf("status = %d, want done", h.mf.Status())
	}
	// MSI landed.
	msi := make([]byte, 1)
	h.hostMem.Store.Read(0x7000, msi)
	if msi[0] != 1 {
		t.Fatal("MSI write missing")
	}
}

func TestGEMMSmallLocalBufferMultiBlock(t *testing.T) {
	// Local buffer fits one A panel + one B panel only: every tile row
	// becomes its own block and B reloads per block.
	h := newHarness(t, Config{
		Functional:    true,
		LocalBufBytes: 2*BPanelBytes(64) + TileCBytes + APanelBytes(64),
	})
	rng := rand.New(rand.NewSource(4))
	const m, k, n = 64, 64, 32
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	want := MatMulRef(a, b, m, k, n)

	h.hostMem.Store.Write(0x10000, PackA(a, m, k))
	h.hostMem.Store.Write(0x80000, PackB(b, k, n))
	h.launch(0x10000, 0x80000, 0x100000, m, n, k, ModeHost)
	h.eq.Run()
	if len(h.done) != 1 {
		t.Fatal("job did not complete")
	}
	cbuf := make([]byte, PackedCSize(m, n))
	h.hostMem.Store.Read(0x100000, cbuf)
	got := UnpackC(cbuf, m, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multi-block C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// BytesIn must reflect B reloads across blocks.
	blocks := 2 // rbTiles = 2 with this buffer (avail/panel = 2)
	wantIn := uint64(m/Dim*APanelBytes(k)) + uint64(blocks*(n/Dim)*BPanelBytes(k))
	if h.done[0].BytesIn != wantIn {
		t.Fatalf("BytesIn = %d, want %d", h.done[0].BytesIn, wantIn)
	}
}

func TestDevMemMode(t *testing.T) {
	h := newHarness(t, Config{Functional: true})
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 32, 32, 32
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	want := MatMulRef(a, b, m, k, n)

	base := uint64(0x40_0000)
	h.devMem.Store.Write(0x10000, PackA(a, m, k))
	h.devMem.Store.Write(0x80000, PackB(b, k, n))
	h.launch(base+0x10000, base+0x80000, base+0x100000, m, n, k, ModeDevMem)
	h.eq.Run()
	if len(h.done) != 1 {
		t.Fatal("devmem job did not complete")
	}
	cbuf := make([]byte, PackedCSize(m, n))
	h.devMem.Store.Read(0x100000, cbuf)
	got := UnpackC(cbuf, m, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("devmem C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// The MSI still travels the host path.
	msi := make([]byte, 1)
	h.hostMem.Store.Read(0x7000, msi)
	if msi[0] != 1 {
		t.Fatal("MSI write missing in devmem mode")
	}
}

func TestComputeOverrideSlowsJob(t *testing.T) {
	run := func(override sim.Tick) sim.Tick {
		h := newHarness(t, Config{ComputeOverride: override})
		h.launch(0x10000, 0x80000, 0x100000, 64, 64, 64, ModeHost)
		h.eq.Run()
		if len(h.done) != 1 {
			t.Fatal("job did not complete")
		}
		return h.done[0].Duration()
	}
	fast := run(10 * sim.Nanosecond)
	slow := run(10 * sim.Microsecond)
	if slow <= fast {
		t.Fatalf("override 10us (%v) should beat 10ns (%v)", slow, fast)
	}
	// 16 tiles at ~10us each dominate: at least 160us.
	if slow < 160*sim.Microsecond {
		t.Fatalf("slow run %v, want >= 160us", slow)
	}
}

func TestCSRReadback(t *testing.T) {
	h := newHarness(t, Config{})
	h.writeReg(RegM, 128)
	rd := mem.NewRead(barBase+RegM, 8)
	h.csr.Send(rd)
	h.eq.Run()
	if binary.LittleEndian.Uint64(rd.Data) != 128 {
		t.Fatalf("CSR readback = %d", binary.LittleEndian.Uint64(rd.Data))
	}
	rs := mem.NewRead(barBase+RegStatus, 8)
	h.csr.Send(rs)
	h.eq.Run()
	if binary.LittleEndian.Uint64(rs.Data) != StatusIdle {
		t.Fatal("status should be idle")
	}
}

func TestBurstRegisterApplies(t *testing.T) {
	h := newHarness(t, Config{})
	h.writeReg(RegBurst, 1024)
	h.launch(0x10000, 0x80000, 0x100000, 32, 32, 32, ModeHost)
	h.eq.Run()
	if got := h.mf.hostDMA.Config().BurstBytes; got != 1024 {
		t.Fatalf("burst = %d, want 1024", got)
	}
}

func TestDoorbellWhileBusyPanics(t *testing.T) {
	h := newHarness(t, Config{})
	h.launch(0x10000, 0x80000, 0x100000, 64, 64, 64, ModeHost)
	defer func() {
		if recover() == nil {
			t.Fatal("double doorbell should panic")
		}
	}()
	// Ring again immediately (before the first completes).
	h.writeReg(RegCtrl, 1)
	h.eq.Run()
}

func TestRemoteBackendOverPipe(t *testing.T) {
	// Serve a CycleModel across an in-process pipe, mirroring the
	// paper's child-process accelerator model.
	c2s := newPipe()
	s2c := newPipe()
	go Serve(c2s, s2c, CycleModel{})
	rb := NewRemoteBackend(s2c, c2s)

	if rb.Name() != "remote:cycle" {
		t.Fatalf("remote name = %q", rb.Name())
	}
	if rb.TileCycles(64) != (CycleModel{}).TileCycles(64) {
		t.Fatal("remote cycles disagree")
	}
	rng := rand.New(rand.NewSource(6))
	aP := randMat(rng, 32*Dim)
	bP := randMat(rng, 32*Dim)
	want := make([]int32, Dim*Dim)
	CycleModel{}.ComputeTile(aP, bP, 32, want)
	got := make([]int32, Dim*Dim)
	rb.ComputeTile(aP, bP, 32, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("remote compute mismatch at %d", i)
		}
	}
}

// pipe is a blocking in-memory byte pipe adequate for the synchronous
// protocol (io.Pipe semantics without the stdlib's pairing).
type pipeRW struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func newPipe() *pipeRW {
	r, w := io.Pipe()
	return &pipeRW{r: r, w: w}
}

func (p *pipeRW) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipeRW) Write(b []byte) (int, error) { return p.w.Write(b) }

func TestNewRejectsNegativeComputeOverride(t *testing.T) {
	neg := -5 * int64(sim.Nanosecond)
	for _, c := range []struct {
		override sim.Tick
		want     string
	}{
		{0, ""},
		{100 * sim.Nanosecond, ""},
		{sim.Tick(neg), "accel mf: ComputeOverride -5000 ps is negative"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil && c.want != "" || r != nil && r != c.want {
					t.Errorf("ComputeOverride %d: panic %v, want %q", c.override, r, c.want)
				}
			}()
			newHarness(t, Config{ComputeOverride: c.override})
		}()
	}
}
