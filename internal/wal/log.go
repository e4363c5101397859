package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// Log is an open WAL file being appended to. Appends are serialized
// internally; with SyncEveryAppend each record is fsynced before Append
// returns, which is what makes an acknowledged mutation batch durable.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	size int64
	sync bool
	path string
}

// Create creates (truncating) a WAL file at path whose records log
// batches accepted after the snapshot generation baseGen. When
// syncEveryAppend is set, every Append fsyncs before returning.
func Create(path string, baseGen uint64, syncEveryAppend bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var head [headerSize]byte
	copy(head[:4], MagicLog[:])
	binary.LittleEndian.PutUint32(head[4:8], VersionLog)
	binary.LittleEndian.PutUint64(head[8:16], baseGen)
	if _, err := f.Write(head[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: syncing header: %w", err)
	}
	return &Log{f: f, size: headerSize, sync: syncEveryAppend, path: path}, nil
}

// Append frames and writes one record, fsyncing when the log was
// created with syncEveryAppend. An error leaves the file position
// untouched logically — the torn tail, if any, is dropped by the next
// recovery scan.
func (l *Log) Append(typ byte, payload []byte) error {
	return l.write(appendFrame(make([]byte, 0, frameHead+len(payload)), typ, payload))
}

// write appends already framed records in one write and, when the log
// syncs, one fsync.
func (l *Log) write(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log %s is closed", l.path)
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing record: %w", err)
		}
	}
	l.size += int64(len(frame))
	return nil
}

// AppendEdgeBatch appends one accepted mutation batch.
func (l *Log) AppendEdgeBatch(b EdgeBatch) error {
	return l.Append(RecEdgeBatch, b.encode())
}

// AppendPublish appends a publish marker for a newly published
// generation.
func (l *Log) AppendPublish(p Publish) error {
	return l.Append(RecPublish, p.encode())
}

// AppendPatchedPublish appends the cover patch of a newly published
// generation followed by the generation's publish marker, as one write
// and one fsync: a reader finds the patch before the marker it
// describes or not at all. A patch whose payload would exceed
// MaxRecordBytes is left out — the marker alone is what every publish
// wrote before patches existed, and recovery re-derives the generation.
func (l *Log) AppendPatchedPublish(cp CoverPatch) error {
	marker := cp.Publish.encode()
	n := cp.encodedLen()
	if n > MaxRecordBytes {
		return l.Append(RecPublish, marker)
	}
	frames := make([]byte, 0, 2*frameHead+int(n)+len(marker))
	frames = appendFrame(frames, RecCoverPatch, cp.encode())
	return l.write(appendFrame(frames, RecPublish, marker))
}

// Size returns the current file size in bytes (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Path returns the file path the log writes to.
func (l *Log) Path() string { return l.path }

// Sync flushes the log to stable storage — used on close and before a
// segment supersedes the log when per-append syncing is off.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and closes the log file. Safe to call more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// ReadLogFile reads a WAL file from disk (see ReadLog).
func ReadLogFile(path string) (Header, []Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, 0, err
	}
	defer f.Close()
	return ReadLog(bufio.NewReaderSize(f, 1<<20))
}
