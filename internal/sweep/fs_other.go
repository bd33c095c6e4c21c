//go:build !unix

package sweep

import (
	"os"
	"sync"
)

// fallbackLocks serialises lockFile holders within this process on
// platforms without flock. Cross-process flushes on such platforms keep
// the pre-lock behaviour: a racing writer can lose an update, which
// costs schedule quality, never correctness. GCs in two processes can
// likewise interleave, and lose records that then re-simulate.
var fallbackLocks sync.Map // path -> *sync.Mutex

func lockFile(path string) (func(), error) {
	mu, _ := fallbackLocks.LoadOrStore(path, &sync.Mutex{})
	m := mu.(*sync.Mutex)
	m.Lock()
	return m.Unlock, nil
}

// unlinked reports whether path no longer names the open file st
// describes: GC renamed a compacted log over it, or it was removed.
func unlinked(st os.FileInfo, path string) bool {
	cur, err := os.Stat(path)
	return err != nil || !os.SameFile(cur, st)
}
