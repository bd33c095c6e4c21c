package mem

import (
	"fmt"
	"sort"
)

// AddrRange is a half-open physical address interval [Start, End).
type AddrRange struct {
	Start uint64
	End   uint64
}

// Range builds an AddrRange from a base and size.
func Range(start, size uint64) AddrRange {
	return AddrRange{Start: start, End: start + size}
}

// Size returns the byte length of the range.
func (r AddrRange) Size() uint64 { return r.End - r.Start }

// Contains reports whether addr falls inside the range.
func (r AddrRange) Contains(addr uint64) bool {
	return addr >= r.Start && addr < r.End
}

// Overlaps reports whether the two ranges share any address.
func (r AddrRange) Overlaps(o AddrRange) bool {
	return r.Start < o.End && o.Start < r.End
}

// Offset returns addr relative to the range base. It panics when addr
// is outside the range: a routing bug that must not be masked.
func (r AddrRange) Offset(addr uint64) uint64 {
	if !r.Contains(addr) {
		panic(fmt.Sprintf("mem: address %#x outside range %v", addr, r))
	}
	return addr - r.Start
}

// String implements fmt.Stringer.
func (r AddrRange) String() string {
	return fmt.Sprintf("[%#x,%#x)", r.Start, r.End)
}

// AddrMap routes addresses to integer targets (port indices). Entries
// must not overlap; lookups use binary search.
type AddrMap struct {
	entries []mapEntry
	sorted  bool
}

type mapEntry struct {
	r      AddrRange
	target int
}

// Add registers a range with its target. It panics if the new range
// overlaps an existing entry.
func (m *AddrMap) Add(r AddrRange, target int) {
	if r.Size() == 0 {
		panic(fmt.Sprintf("mem: empty range %v in address map", r))
	}
	for _, e := range m.entries {
		if e.r.Overlaps(r) {
			panic(fmt.Sprintf("mem: range %v overlaps %v", r, e.r))
		}
	}
	m.entries = append(m.entries, mapEntry{r: r, target: target})
	m.sorted = false
}

func (m *AddrMap) sort() {
	if m.sorted {
		return
	}
	sort.Slice(m.entries, func(i, j int) bool {
		return m.entries[i].r.Start < m.entries[j].r.Start
	})
	m.sorted = true
}

// Find returns the target whose range contains addr. The boolean is
// false when no range matches.
func (m *AddrMap) Find(addr uint64) (int, bool) {
	m.sort()
	i := sort.Search(len(m.entries), func(i int) bool {
		return m.entries[i].r.End > addr
	})
	if i < len(m.entries) && m.entries[i].r.Contains(addr) {
		return m.entries[i].target, true
	}
	return 0, false
}

// Ranges returns all registered ranges in ascending order.
func (m *AddrMap) Ranges() []AddrRange {
	m.sort()
	out := make([]AddrRange, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.r
	}
	return out
}

// AlignDown rounds addr down to a multiple of align (a power of two).
func AlignDown(addr uint64, align uint64) uint64 { return addr &^ (align - 1) }

// AlignUp rounds addr up to a multiple of align (a power of two).
func AlignUp(addr uint64, align uint64) uint64 {
	return (addr + align - 1) &^ (align - 1)
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Log2 returns floor(log2(v)) for v > 0.
func Log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
