package sweep

// The entry log: every result a directory cache holds lives in one
// append-only file, entries.log, one record per line:
//
//	<write time, Unix nanoseconds> <entry JSON>\n
//
// The entry JSON is the {"fingerprint":…,"outcome":…} object PutRef
// encodes and decodeEntry verifies. A Put is one write on an O_APPEND
// handle, so processes on one host share the log without interleaving
// records. Each Cache keeps the log open and indexes its records by the
// SHA-256 of their stored key; a later record for a key supersedes an
// earlier one, and GC compacts superseded records away.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"sync"
)

// logName is the entry log inside a cache directory.
const logName = "entries.log"

// record locates one line of the log.
type record struct {
	off  int64 // offset of the line
	n    int   // line length, newline included
	head int   // bytes before the entry JSON: the write time and a space
	at   int64 // write time, Unix nanoseconds
}

// keyed is a record and the hash of the key it stores.
type keyed struct {
	sum [32]byte
	rec record
}

// entryLog is one Cache's open view of its directory's log.
type entryLog struct {
	path string

	// mu serialises appends, refreshes and reads of the handle.
	mu sync.Mutex
	f  *os.File // O_RDWR|O_APPEND; nil until first use or after a failed write
	// end is the offset just past the last complete line indexed and
	// size the log's length at the last scan: [end, size) is a partial
	// line, a torn record or an append caught mid-write.
	end, size int64
	idx       map[[32]byte]record
}

// parseRecord splits a complete line (newline included) into its
// record and stored key. It reports false for a line whose time or
// fingerprint does not decode; the rest of the entry is verified only
// on read, so a record damaged after its fingerprint still reads as a
// miss and an error.
func parseRecord(line []byte) (record, string, bool) {
	sp := bytes.IndexByte(line, ' ')
	if sp <= 0 {
		return record{}, "", false
	}
	at, err := strconv.ParseInt(string(line[:sp]), 10, 64)
	if err != nil {
		return record{}, "", false
	}
	key, ok := storedKey(line[sp+1 : len(line)-1])
	return record{n: len(line), head: sp + 1, at: at}, key, ok
}

// storedKey returns the fingerprint an entry stores. An entry in
// PutRef's layout has only its leading fingerprint string decoded;
// anything else takes a full decode.
func storedKey(entryJSON []byte) (string, bool) {
	const head = `{"fingerprint":"`
	if rest, ok := bytes.CutPrefix(entryJSON, []byte(head)); ok {
		if key, ok := unquoteASCII(rest); ok {
			return key, true
		}
		// Not ASCII: let encoding/json find and decode the string.
		var key string
		dec := json.NewDecoder(bytes.NewReader(entryJSON[len(head)-1:]))
		err := dec.Decode(&key)
		return key, err == nil
	}
	var e struct {
		Fingerprint string `json:"fingerprint"`
	}
	err := json.Unmarshal(entryJSON, &e)
	return e.Fingerprint, err == nil
}

// unquoteASCII decodes the JSON string whose body starts s, up to its
// closing quote, exactly as encoding/json would. It handles only what
// json.Marshal writes for an ASCII key — printable bytes and backslash
// escapes of ASCII characters — which covers real fingerprints at a
// fraction of the general decoder's cost, and reports false for
// anything else.
func unquoteASCII(s []byte) (string, bool) {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		j := i
		for j < len(s) && s[j] >= 0x20 && s[j] < 0x80 && s[j] != '"' && s[j] != '\\' {
			j++
		}
		out = append(out, s[i:j]...)
		if j+1 >= len(s) || s[j] != '\\' {
			if j < len(s) && s[j] == '"' {
				return string(out), true
			}
			return "", false
		}
		i = j + 1
		switch s[i] {
		case '"', '\\', '/':
			out = append(out, s[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 >= len(s) {
				return "", false
			}
			r, err := strconv.ParseUint(string(s[i+1:i+5]), 16, 8)
			if err != nil || r >= 0x80 {
				return "", false
			}
			out = append(out, byte(r))
			i += 4
		default:
			return "", false
		}
	}
	return "", false
}

// encodeRecord returns the log line for e written at at, and its
// record (offset 0). The entry bytes are json.Marshal's.
func encodeRecord(at int64, e entry) ([]byte, record, error) {
	// Room for the escapes a fingerprint's quotes and newlines take.
	line := strconv.AppendInt(make([]byte, 0, len(e.Fingerprint)*5/4+256), at, 10)
	head := len(line) + 1
	buf := bytes.NewBuffer(append(line, ' '))
	// Encode writes json.Marshal's bytes and the closing newline.
	if err := json.NewEncoder(buf).Encode(e); err != nil {
		return nil, record{}, err
	}
	return buf.Bytes(), record{n: buf.Len(), head: head, at: at}, nil
}

// eachLine calls fn for every complete line of r in [from, to), newline
// included, and returns the offset just past the last one. line is only
// valid during the call.
func eachLine(r io.ReaderAt, from, to int64, fn func(off int64, line []byte)) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, from, to-from), int(min(to-from, 64<<10)))
	var long []byte
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err == io.EOF {
			return from, nil
		}
		if err != nil {
			return from, err
		}
		fn(from, line)
		from += int64(len(line))
	}
}

// refreshLocked brings the index up to date with the log: it re-stats
// the handle, indexes only the bytes the log gained since the last
// scan, and reopens and re-indexes the whole log when GC replaced it
// (or it shrank, or was never opened). The caller holds mu.
func (l *entryLog) refreshLocked() error {
	if l.f != nil {
		st, err := l.f.Stat()
		if err == nil && !unlinked(st, l.path) && st.Size() >= l.size {
			if st.Size() == l.size {
				return nil
			}
			return l.scanLocked(st.Size())
		}
	}
	l.closeLocked()
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f = f
	return l.scanLocked(st.Size())
}

// scanLocked indexes the complete lines in [end, size). A line that
// does not decode is skipped.
func (l *entryLog) scanLocked(size int64) error {
	if l.idx == nil {
		l.idx = make(map[[32]byte]record)
	}
	end, err := eachLine(l.f, l.end, size, func(off int64, line []byte) {
		if rec, key, ok := parseRecord(line); ok {
			rec.off = off
			l.idx[sha256.Sum256([]byte(key))] = rec
		}
	})
	l.end, l.size = end, size
	return err
}

// closeLocked drops the handle and the index.
func (l *entryLog) closeLocked() {
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.end, l.size, l.idx = nil, 0, 0, nil
}

// readLocked returns rec's entry JSON.
func (l *entryLog) readLocked(rec record) ([]byte, error) {
	buf := make([]byte, rec.n-rec.head-1)
	_, err := l.f.ReadAt(buf, rec.off+int64(rec.head))
	return buf, err
}

// read returns the entry JSON of the latest record stored under sum,
// or found false when the log holds none.
func (l *entryLog) read(sum *[32]byte) (data []byte, found bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		return nil, false, err
	}
	rec, ok := l.idx[*sum]
	if !ok {
		return nil, false, nil
	}
	data, err = l.readLocked(rec)
	return data, true, err
}

// appendLocked writes lines, whole records, to the end of the log in
// one write and indexes recs, whose offsets are relative to lines. The
// caller holds mu.
func (l *entryLog) appendLocked(lines []byte, recs []keyed) error {
	if err := l.refreshLocked(); err != nil {
		return err
	}
	torn := l.end < l.size
	if torn {
		// Start on a fresh line so a torn record never glues onto this
		// one; if the partial line is another process's append in
		// flight, this only adds an empty line after it.
		lines = append([]byte{'\n'}, lines...)
	}
	if _, err := l.f.Write(lines); err != nil {
		// A short write may have torn the last record: drop the handle,
		// so the next use re-reads the log and starts a fresh line.
		l.closeLocked()
		return err
	}
	pos, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		l.closeLocked()
		return err
	}
	base := pos - int64(len(lines))
	if base == l.size {
		// Nobody appended since the refresh: the log ends with lines.
		if torn {
			// The newline completed the partial line; index it as any
			// reader now would.
			if err := l.scanLocked(base + 1); err != nil {
				l.closeLocked() // the next use re-reads the whole log
				return nil
			}
		}
		l.end, l.size = pos, pos
	}
	if torn {
		base++
	}
	for _, k := range recs {
		k.rec.off += base
		l.idx[k.sum] = k.rec
	}
	return nil
}

// put appends one record.
func (l *entryLog) put(sum *[32]byte, line []byte, rec record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(line, []keyed{{*sum, rec}})
}
