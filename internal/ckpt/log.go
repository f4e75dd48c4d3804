package ckpt

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Log is the one append-only writer of checkpoint-format files: the CLI's
// -checkpoint file, the -serve daemon's c<N>/shard<i>.ckpt files and the
// verdict cache. A file log writes whole lines and fsyncs them before an
// append returns, so a crash loses at most the line being written, and
// that line is the file's last; reopening cuts it before the next append,
// so a torn write never ends up between intact lines, where Read refuses
// the file. A stream log (-checkpoint -) only writes: the daemon reading
// the stream holds the durable copy. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	w    io.Writer
	f    *os.File // nil for a stream log
	sync bool
	size int64 // bytes of whole lines in f
}

// OpenLog opens the checkpoint-format file at path for appending and
// returns the lines it holds. A missing file is created and its parent
// directory fsynced, so the new entry survives a crash; with exclusive set
// an existing file is an error (os.ErrExist). An existing file is first
// cut back to its whole lines (Parse): a torn final line is removed and a
// missing final newline restored. Corruption before intact lines is an
// error, as in Read.
func OpenLog(path string, exclusive bool) (*Log, []Line, error) {
	return openLog(path, exclusive, true)
}

func openLog(path string, exclusive, durable bool) (*Log, []Line, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	created := err == nil
	if errors.Is(err, os.ErrExist) && !exclusive {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	}
	if err != nil {
		return nil, nil, err
	}
	var (
		lines []Line
		keep  int
	)
	data, err := io.ReadAll(f)
	if err == nil {
		lines, keep, err = Parse(data, path)
	}
	if err == nil && keep < len(data) {
		err = f.Truncate(int64(keep))
	}
	l := &Log{w: f, f: f, sync: durable, size: int64(keep)}
	if err == nil && keep > 0 && data[keep-1] != '\n' {
		err = l.write([]byte("\n"))
	}
	if err == nil && created && durable {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, lines, nil
}

// StreamLog returns a log that writes to w without syncing and never
// closes it.
func StreamLog(w io.Writer) *Log {
	return &Log{w: w}
}

// Append marshals one line and appends it.
func (l *Log) Append(line Line) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	return l.Write(append(data, '\n'))
}

// Write appends data, whole lines as Parse delimits them (a missing final
// newline is added), with one write and, for a file log, one fsync.
func (l *Log) Write(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if data[len(data)-1] != '\n' {
		data = append(data[:len(data):len(data)], '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.write(data); err != nil || !l.sync {
		return err
	}
	return l.f.Sync()
}

// write appends data. A failed write is cut back off a file, so the lines
// appended next still follow whole ones.
func (l *Log) write(data []byte) error {
	n, err := l.w.Write(data)
	if err != nil && l.f != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			return errors.Join(err, terr)
		}
		return err
	}
	l.size += int64(n)
	return err
}

// Close closes a file log's file; a stream log leaves its writer open,
// and a nil log has nothing to close.
func (l *Log) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	return l.f.Close()
}

// SyncDir fsyncs a directory so an entry just created in it survives a
// crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
