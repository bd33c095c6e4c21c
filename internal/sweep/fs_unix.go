//go:build unix

package sweep

import (
	"os"
	"syscall"
)

// lockFile takes an exclusive advisory lock on path (creating the file
// if absent), blocking until the lock is granted. The returned unlock
// releases the lock and closes the descriptor. flock locks are held by
// the open file description, so they contend between goroutines of one
// process as well as between processes, and die with the holder — a
// crashed flusher or GC never wedges the directory.
func lockFile(path string) (func(), error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// unlinked reports whether the open file st describes has lost its
// name: GC renamed a compacted log over it, or it was removed. A link
// count from fstat answers without walking the path.
func unlinked(st os.FileInfo, _ string) bool {
	sys, ok := st.Sys().(*syscall.Stat_t)
	return ok && sys.Nlink == 0
}
