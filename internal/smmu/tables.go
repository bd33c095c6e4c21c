package smmu

import (
	"encoding/binary"
	"fmt"

	"accesys/internal/mem"
)

// TableBuilder constructs the 4-level page tables the SMMU walks. The
// kernel driver uses it to map DMA buffers; it writes table memory
// through the functional backdoor exactly where the walker will read it
// with timed accesses.
type TableBuilder struct {
	mem   mem.Functional
	alloc func() uint64 // returns the physical base of a fresh 4 KiB frame
	root  uint64
	// buf carries one PTE through the functional interface; a local
	// array would escape to the heap on every access.
	buf [PTESize]byte
}

// NewTableBuilder allocates a root table. alloc must return 4
// KiB-aligned physical frames of zeroed memory.
func NewTableBuilder(f mem.Functional, alloc func() uint64) *TableBuilder {
	return &TableBuilder{mem: f, alloc: alloc, root: alloc()}
}

// Root returns the physical address of the root table for the SMMU's
// base register.
func (b *TableBuilder) Root() uint64 { return b.root }

func (b *TableBuilder) readPTE(addr uint64) uint64 {
	b.mem.ReadFunctional(addr, b.buf[:])
	return binary.LittleEndian.Uint64(b.buf[:])
}

func (b *TableBuilder) writePTE(addr, v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], v)
	b.mem.WriteFunctional(addr, b.buf[:])
}

// Map installs a translation from one IOVA page to one physical page,
// creating intermediate tables on demand.
func (b *TableBuilder) Map(iova, phys uint64) {
	if iova%PageBytes != 0 || phys%PageBytes != 0 {
		panic(fmt.Sprintf("smmu: Map of unaligned addresses %#x -> %#x", iova, phys))
	}
	base := b.root
	for level := 0; level < WalkLevels-1; level++ {
		slot := base + vaIndex(iova, level)*PTESize
		pte := b.readPTE(slot)
		if !PTEValid(pte) {
			next := b.alloc()
			b.writePTE(slot, MakePTE(next))
			base = next
		} else {
			base = PTEAddr(pte)
		}
	}
	b.writePTE(base+vaIndex(iova, WalkLevels-1)*PTESize, MakePTE(phys))
}

// MapRange maps size bytes of contiguous IOVA onto contiguous physical
// memory, page by page.
func (b *TableBuilder) MapRange(iova, phys, size uint64) {
	for off := uint64(0); off < size; off += PageBytes {
		b.Map(iova+off, phys+off)
	}
}
