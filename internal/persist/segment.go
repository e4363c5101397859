package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/wal"
)

// The on-disk constants below are normative: docs/PERSISTENCE.md
// describes them and TestPersistenceDocSync fails if the two diverge.

// MagicSegment opens every snapshot segment file.
var MagicSegment = [4]byte{'O', 'C', 'S', 'G'}

// VersionSegment is the segment format version this package reads and
// writes.
const VersionSegment = 1

// Section tags, in the order segments write them. Unknown tags are
// skippable (sections are length-prefixed), so additive sections do not
// require a version bump.
var (
	// SecMeta is the JSON generation metadata (segMeta).
	SecMeta = [4]byte{'M', 'E', 'T', 'A'}
	// SecGraph is 4 alignment pad bytes followed by the binary CSR graph
	// exactly as graph.WriteBinary emits it.
	SecGraph = [4]byte{'G', 'R', 'P', 'H'}
	// SecCover is the served communities (count, then length-prefixed
	// member lists, int32 LE).
	SecCover = [4]byte{'C', 'O', 'V', 'R'}
	// SecTable is the local→global translation table prefix for this
	// generation's node set; empty on the single-graph role.
	SecTable = [4]byte{'T', 'A', 'B', 'L'}
	// SecEnd terminates a segment. A file without it is a torn write and
	// is never served.
	SecEnd = [4]byte{'E', 'N', 'D', 'S'}
)

// File-name patterns inside a data dir. The hex field is the snapshot
// generation (segments) or the base generation whose publication the
// log's records follow (WAL).
const (
	SegmentPattern = "seg-%016x.ocaseg"
	WALPattern     = "wal-%016x.ocawal"
)

// segHeaderSize is the segment file header: magic, version u32.
const segHeaderSize = 4 + 4

// secHeaderSize is the per-section header: tag, reserved u32 (zero),
// payload length u64, CRC-32C u32 over the payload, pad u32 (zero).
// 24 bytes keeps every payload 8-byte aligned (payloads themselves are
// zero-padded to the next 8-byte boundary), which is what lets the
// mmap path hand the graph's int64 offsets array straight to the CPU.
const secHeaderSize = 4 + 4 + 8 + 4 + 4

// maxSectionBytes caps a section's declared length when parsing, so a
// corrupt header cannot demand an absurd allocation. Segments for the
// scalability experiments' 10⁷-edge graphs stay well under it.
const maxSectionBytes = int64(1) << 36

// SegmentName returns the file name for generation gen.
func SegmentName(gen uint64) string { return fmt.Sprintf(SegmentPattern, gen) }

// WALName returns the WAL file name for base generation gen.
func WALName(gen uint64) string { return fmt.Sprintf(WALPattern, gen) }

// segMeta is the META section payload.
type segMeta struct {
	Info refresh.SnapshotInfo `json:"info"`
	// Shard/Shards identify the slice of a K-way partition this segment
	// belongs to; Shards 0 marks the single-graph role.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// MaxNodes is the growth ceiling the generation was serving under.
	MaxNodes int `json:"max_nodes"`
	// GlobalNodes is the node count of the input graph the deployment
	// was bootstrapped from — the one fact a restart would otherwise
	// re-parse -in for. Omitted when unknown (0), so segments written
	// before it existed decode identically.
	GlobalNodes int `json:"global_nodes,omitempty"`
	// Epoch/PMap record the partition map the generation was routed
	// under (see docs/PROTOCOL.md "Partition map & rebalancing"). Both
	// are omitted at epoch 0 — the base v mod Shards map — so segments
	// written before rebalancing existed decode identically.
	Epoch uint64 `json:"epoch,omitempty"`
	PMap  []byte `json:"pmap,omitempty"`
}

// Segment is one decoded snapshot segment. When the file was mmap'd the
// graph's CSR arrays alias the mapping: the Segment must stay unclosed
// for as long as the graph is referenced.
type Segment struct {
	// Path is the file this segment was loaded from.
	Path string
	// Info carries the generation's scalar facts (gen, seq, c, …).
	Info refresh.SnapshotInfo
	// Shard/Shards/MaxNodes/GlobalNodes are the identity facts from the
	// META section (Shards 0 = single-graph role; GlobalNodes 0 = a
	// segment written before the field existed).
	Shard       int
	Shards      int
	MaxNodes    int
	GlobalNodes int
	// Epoch/PMap are the persisted partition map facts (zero/nil for
	// segments written at the epoch-0 base map).
	Epoch uint64
	PMap  []byte
	// Graph and Cover are the persisted state.
	Graph *graph.Graph
	Cover *cover.Cover
	// Table is the local→global translation for Graph's nodes (nil on
	// the single role).
	Table []int32

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
type SegmentData struct {
	Info        refresh.SnapshotInfo
	Shard       int
	Shards      int
	MaxNodes    int
	GlobalNodes int
	// Epoch/PMap stamp the partition map the shard routes under (zero
	// value = the epoch-0 base map, omitted on disk).
	Epoch uint64
	PMap  []byte
	Graph *graph.Graph
	Cover *cover.Cover
	Table []int32
}

// WriteSegment atomically writes a segment file at path: the bytes land
// in a temporary file in the same directory, are fsynced, renamed over
// path, and the directory is fsynced — so the file either exists
// completely or not at all.
func WriteSegment(path string, d SegmentData) error {
	var buf bytes.Buffer
	buf.Write(MagicSegment[:])
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], VersionSegment)
	buf.Write(v[:])

	meta, err := json.Marshal(segMeta{Info: d.Info, Shard: d.Shard, Shards: d.Shards, MaxNodes: d.MaxNodes, GlobalNodes: d.GlobalNodes, Epoch: d.Epoch, PMap: d.PMap})
	if err != nil {
		return fmt.Errorf("persist: encoding segment meta: %w", err)
	}
	writeSection(&buf, SecMeta, meta)

	var gbuf bytes.Buffer
	gbuf.Write([]byte{0, 0, 0, 0}) // aligns the CSR offsets array at +32
	if err := graph.WriteBinary(&gbuf, d.Graph); err != nil {
		return fmt.Errorf("persist: encoding segment graph: %w", err)
	}
	writeSection(&buf, SecGraph, gbuf.Bytes())
	writeSection(&buf, SecCover, encodeCover(d.Cover))
	writeSection(&buf, SecTable, encodeTable(d.Table))
	writeSection(&buf, SecEnd, nil)

	return atomicWrite(path, buf.Bytes())
}

func writeSection(buf *bytes.Buffer, tag [4]byte, payload []byte) {
	var head [secHeaderSize]byte
	copy(head[:4], tag[:])
	binary.LittleEndian.PutUint64(head[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(head[16:20], wal.Checksum(payload))
	buf.Write(head[:])
	buf.Write(payload)
	if pad := (8 - len(payload)%8) % 8; pad > 0 {
		buf.Write(make([]byte, pad))
	}
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
	seg, err := decodeSegment(path, data, mapping != nil)
	if err != nil {
		if mapping != nil {
			_ = unmapFile(mapping)
		}
		return nil, err
	}
	seg.mapping = mapping
	return seg, nil
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

func decodeSegment(path string, data []byte, mapped bool) (*Segment, error) {
	if len(data) < segHeaderSize {
		return nil, fmt.Errorf("persist: %s: %d bytes, shorter than a segment header", path, len(data))
	}
	if [4]byte(data[:4]) != MagicSegment {
		return nil, fmt.Errorf("persist: %s: bad magic %q, not a segment", path, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != VersionSegment {
		return nil, fmt.Errorf("persist: %s: unsupported segment version %d", path, v)
	}

	seg := &Segment{Path: path}
	var sawEnd, sawMeta, sawGraph, sawCover bool
	off := int64(segHeaderSize)
	for off < int64(len(data)) && !sawEnd {
		if int64(len(data))-off < secHeaderSize {
			return nil, fmt.Errorf("persist: %s: truncated section header at offset %d", path, off)
		}
		head := data[off : off+secHeaderSize]
		tag := [4]byte(head[:4])
		plen := int64(binary.LittleEndian.Uint64(head[8:16]))
		crc := binary.LittleEndian.Uint32(head[16:20])
		if plen < 0 || plen > maxSectionBytes {
			return nil, fmt.Errorf("persist: %s: section %q declares %d bytes", path, tag[:], plen)
		}
		body := off + secHeaderSize
		if body+plen > int64(len(data)) {
			return nil, fmt.Errorf("persist: %s: section %q truncated (%d bytes declared at offset %d)", path, tag[:], plen, off)
		}
		payload := data[body : body+plen]
		if got := wal.Checksum(payload); got != crc {
			return nil, fmt.Errorf("persist: %s: section %q checksum %08x != %08x", path, tag[:], got, crc)
		}
		switch tag {
		case SecMeta:
			var m segMeta
			if err := json.Unmarshal(payload, &m); err != nil {
				return nil, fmt.Errorf("persist: %s: decoding meta: %w", path, err)
			}
			seg.Info, seg.Shard, seg.Shards, seg.MaxNodes = m.Info, m.Shard, m.Shards, m.MaxNodes
			seg.GlobalNodes, seg.Epoch, seg.PMap = m.GlobalNodes, m.Epoch, m.PMap
			sawMeta = true
		case SecGraph:
			g, err := decodeGraphPayload(payload, mapped)
			if err != nil {
				return nil, fmt.Errorf("persist: %s: %w", path, err)
			}
			seg.Graph = g
			sawGraph = true
		case SecCover:
			cv, err := decodeCover(payload)
			if err != nil {
				return nil, fmt.Errorf("persist: %s: %w", path, err)
			}
			seg.Cover = cv
			sawCover = true
		case SecTable:
			tb, err := decodeTable(payload)
			if err != nil {
				return nil, fmt.Errorf("persist: %s: %w", path, err)
			}
			seg.Table = tb
		case SecEnd:
			sawEnd = true
		default:
			// Length-prefixed unknown sections are forward-compatible:
			// skip.
		}
		off = body + plen + int64((8-plen%8)%8)
	}
	if !sawEnd {
		return nil, fmt.Errorf("persist: %s: missing ENDS section — torn segment write", path)
	}
	if !sawMeta || !sawGraph || !sawCover {
		return nil, fmt.Errorf("persist: %s: incomplete segment (meta %v, graph %v, cover %v)", path, sawMeta, sawGraph, sawCover)
	}
	if n := seg.Graph.N(); seg.Info.Nodes != n {
		return nil, fmt.Errorf("persist: %s: meta declares %d nodes, graph has %d", path, seg.Info.Nodes, n)
	}
	for _, c := range seg.Cover.Communities {
		for _, v := range c {
			if v < 0 || int(v) >= seg.Graph.N() {
				return nil, fmt.Errorf("persist: %s: cover member %d outside graph of %d nodes", path, v, seg.Graph.N())
			}
		}
	}
	if seg.Table != nil && len(seg.Table) != seg.Graph.N() {
		return nil, fmt.Errorf("persist: %s: table has %d entries for a %d-node graph", path, len(seg.Table), seg.Graph.N())
	}
	return seg, nil
}

// decodeGraphPayload parses a GRPH section: 4 pad bytes, then the
// binary CSR format of graph.WriteBinary. With zeroCopy the CSR arrays
// alias the payload (the caller guarantees it is an 8-byte-aligned
// mmap); the structural invariants are vouched for by the section
// checksum, so only the header/dimension facts are re-checked.
func decodeGraphPayload(p []byte, zeroCopy bool) (*graph.Graph, error) {
	const graphHead = 4 + 4 + 8 + 8 + 8 // pad, magic, version/n/halfEdges
	if len(p) < graphHead {
		return nil, fmt.Errorf("graph section %d bytes, shorter than its header", len(p))
	}
	if !zeroCopy || uintptr(unsafe.Pointer(&p[0]))%8 != 0 {
		// Portable path: the stock reader validates the full CSR.
		g, err := graph.ReadBinary(bytes.NewReader(p[4:]))
		if err != nil {
			return nil, fmt.Errorf("graph section: %w", err)
		}
		return g, nil
	}
	if string(p[4:8]) != "OCAG" {
		return nil, fmt.Errorf("graph section: bad inner magic %q", p[4:8])
	}
	version := int64(binary.LittleEndian.Uint64(p[8:16]))
	n := int64(binary.LittleEndian.Uint64(p[16:24]))
	he := int64(binary.LittleEndian.Uint64(p[24:32]))
	if version != 1 {
		return nil, fmt.Errorf("graph section: unsupported inner version %d", version)
	}
	want := int64(graphHead) + 8*(n+1) + 4*he
	if n < 0 || he < 0 || int64(len(p)) != want {
		return nil, fmt.Errorf("graph section: %d bytes, dimensions (n=%d, half-edges=%d) demand %d", len(p), n, he, want)
	}
	offsets := unsafe.Slice((*int64)(unsafe.Pointer(&p[graphHead])), n+1)
	var adj []int32
	if he > 0 {
		adj = unsafe.Slice((*int32)(unsafe.Pointer(&p[graphHead+8*(n+1)])), he)
	}
	if offsets[0] != 0 || offsets[n] != he {
		return nil, fmt.Errorf("graph section: corrupt offsets (first=%d, last=%d, want 0, %d)", offsets[0], offsets[n], he)
	}
	return graph.NewFromCSR(offsets, adj), nil
}

func encodeCover(cv *cover.Cover) []byte {
	n := 4
	for _, c := range cv.Communities {
		n += 4 + 4*len(c)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cv.Communities)))
	for _, c := range cv.Communities {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c)))
		for _, v := range c {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	}
	return out
}

func decodeCover(p []byte) (*cover.Cover, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("cover section %d bytes, want >= 4", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	// Every community costs at least its length prefix: a corrupt count
	// cannot demand more memory than the section provides.
	if int64(count)*4 > int64(len(p)) {
		return nil, fmt.Errorf("cover section declares %d communities in %d bytes", count, len(p))
	}
	cs := make([]cover.Community, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("cover section truncated at community %d", i)
		}
		m := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if int64(m)*4 > int64(len(p)) {
			return nil, fmt.Errorf("cover section: community %d declares %d members in %d bytes", i, m, len(p))
		}
		members := make(cover.Community, m)
		for j := range members {
			members[j] = int32(binary.LittleEndian.Uint32(p[4*j:]))
		}
		p = p[4*m:]
		cs = append(cs, members)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("cover section has %d trailing bytes", len(p))
	}
	return cover.NewCover(cs), nil
}

func encodeTable(table []int32) []byte {
	out := make([]byte, 0, 4+4*len(table))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(table)))
	for _, v := range table {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

func decodeTable(p []byte) ([]int32, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("table section %d bytes, want >= 4", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if int64(count)*4 != int64(len(p)) {
		return nil, fmt.Errorf("table section declares %d entries in %d bytes", count, len(p))
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out, nil
}
