package sweep

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic stages data in a temp file inside dir (pattern names
// it, and must end in ".tmp" so cache GC can reap abandoned stages)
// and renames it onto dir/name — the write-then-rename pattern every
// cache-adjacent artifact (the compacted entry log, counters, shard
// summaries, merge ledgers, wall profiles) uses so readers never
// observe a torn file.
func WriteFileAtomic(dir, pattern, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
