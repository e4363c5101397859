package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/refresh"
	"repro/internal/segment"
)

// File-name patterns inside a data dir. The hex field is the snapshot
// generation (segments) or the base generation whose publication the
// log's records follow (WAL). They are normative: docs/PERSISTENCE.md
// describes them and TestPersistenceDocSync fails if the two diverge.
const (
	SegmentPattern = "seg-%016x.ocaseg"
	WALPattern     = "wal-%016x.ocawal"
)

// SegmentName returns the file name for generation gen.
func SegmentName(gen uint64) string { return fmt.Sprintf(SegmentPattern, gen) }

// WALName returns the WAL file name for base generation gen.
func WALName(gen uint64) string { return fmt.Sprintf(WALPattern, gen) }

// Segment is one decoded snapshot segment file (see internal/segment).
// When the file was mmap'd the graph's CSR arrays alias the mapping: the
// Segment must stay unclosed for as long as the graph is referenced.
type Segment struct {
	segment.Data
	// Path is the file this segment was loaded from.
	Path string

	mapping []byte // non-nil when Graph aliases an mmap
}

// Close releases the segment's mapping, if any. The graph (and any
// snapshot holding it) must not be used afterwards.
func (s *Segment) Close() error {
	if s.mapping == nil {
		return nil
	}
	m := s.mapping
	s.mapping = nil
	return unmapFile(m)
}

// Snapshot reassembles the refresh-level snapshot this segment
// persisted: index and stats are rebuilt deterministically from the
// cover, then the recorded scalar facts are restored on top.
//
// The snapshot carries a synthetic Result: segments only ever persist
// published generations, whose covers went through the merge, so the
// merge-fixpoint invariant the incremental engine checks via a non-nil
// Result holds. Leaving it nil would force the first post-recovery
// rebuild onto the full path — diverging from the live history that
// WAL replay must reproduce exactly. The run counters stay zero: this
// process did none of that work.
func (s *Segment) Snapshot() *refresh.Snapshot { return assembled(s.bare()) }

// bare is Snapshot without the index and stats: what recovery hands
// the role that serves the generation, which assembles it once.
func (s *Segment) bare() *refresh.Snapshot {
	snap := &refresh.Snapshot{Graph: s.Graph, Cover: s.Cover, Result: &core.Result{Cover: s.Cover, C: s.Info.C}}
	snap.Restore(s.Info)
	return snap
}

// SegmentData is the state WriteSegment persists.
type SegmentData = segment.Data

// WriteSegment atomically writes a segment file at path: the bytes land
// in a temporary file in the same directory, are fsynced, renamed over
// path, and the directory is fsynced — so the file either exists
// completely or not at all.
func WriteSegment(path string, d SegmentData) error {
	data, err := d.Encode()
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return atomicWrite(path, data)
}

// atomicWrite lands data at path via tmp + fsync + rename + dir fsync.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadSegment opens, validates and decodes the segment at path,
// mmapping the file where the platform supports it so the graph's CSR
// arrays are served straight from the page cache (zero copy); elsewhere
// the file is read into memory. Every section's checksum is verified
// and the terminating ENDS section is required, so a torn or corrupted
// segment fails here instead of serving bad state.
func LoadSegment(path string) (*Segment, error) {
	data, mapping, err := readSegmentBytes(path)
	if err != nil {
		return nil, err
	}
	d, err := segment.Decode(data, mapping != nil)
	if err == nil && d.Table != nil && len(d.Table) != d.Graph.N() {
		err = fmt.Errorf("table has %d entries for a %d-node graph", len(d.Table), d.Graph.N())
	}
	if err != nil {
		if mapping != nil {
			_ = unmapFile(mapping)
		}
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return &Segment{Data: *d, Path: path, mapping: mapping}, nil
}

// readSegmentBytes returns the file's bytes, mmap'd when possible
// (mapping non-nil) and heap-read otherwise.
func readSegmentBytes(path string) (data, mapping []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if m, err := mapFile(f, st.Size()); err == nil && m != nil {
		return m, m, nil
	}
	data, err = os.ReadFile(path)
	return data, nil, err
}
