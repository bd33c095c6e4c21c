package mem

import "fmt"

// frameSize is the allocation granule of sparse Storage. 4 KiB matches
// the page size used throughout the system.
const frameSize = 4096

// Storage is a sparse byte store backing simulated memories. Frames
// are allocated on first touch so multi-gigabyte address spaces cost
// only what the workload writes. Reads of untouched bytes return zero,
// like freshly scrubbed DRAM.
type Storage struct {
	size   uint64
	frames map[uint64][]byte
}

// NewStorage creates a store covering [0, size).
func NewStorage(size uint64) *Storage {
	return &Storage{size: size, frames: make(map[uint64][]byte)}
}

// Size returns the store's capacity in bytes.
func (s *Storage) Size() uint64 { return s.size }

func (s *Storage) check(addr uint64, n int) {
	if addr+uint64(n) > s.size {
		panic(fmt.Sprintf("mem: storage access [%#x,%#x) beyond size %#x", addr, addr+uint64(n), s.size))
	}
}

// Read copies len(buf) bytes starting at addr into buf.
func (s *Storage) Read(addr uint64, buf []byte) {
	s.check(addr, len(buf))
	for len(buf) > 0 {
		frame := addr / frameSize
		off := addr % frameSize
		n := frameSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		if f, ok := s.frames[frame]; ok {
			copy(buf[:n], f[off:off+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += n
	}
}

// Write copies data into the store starting at addr.
func (s *Storage) Write(addr uint64, data []byte) {
	s.check(addr, len(data))
	for len(data) > 0 {
		frame := addr / frameSize
		off := addr % frameSize
		n := frameSize - off
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		f, ok := s.frames[frame]
		if !ok {
			f = make([]byte, frameSize)
			s.frames[frame] = f
		}
		copy(f[off:off+n], data[:n])
		data = data[n:]
		addr += n
	}
}

// Access applies a packet functionally: reads fill pkt.Data (allocating
// it if nil) unless marked NoPayload, writes store pkt.Data when
// present. Timing-only writes (nil data) leave contents untouched.
func (s *Storage) Access(pkt *Packet, offset uint64) {
	switch {
	case pkt.Cmd.IsRead():
		if !pkt.NoPayload {
			s.Read(offset, pkt.AllocData()[:pkt.Size])
		}
	case pkt.Cmd.IsWrite():
		if pkt.Data != nil {
			s.Write(offset, pkt.Data[:pkt.Size])
		}
	}
}
