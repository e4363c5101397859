// Package segment is the encoding of one published generation as a
// self-contained byte string: the snapshot segment a data directory
// persists (internal/persist) and the full transfer a shard server
// answers a mirror with (internal/transport). Graph, cover, translation
// table and generation metadata each ride in a CRC-protected,
// length-prefixed section; the graph payload is internal/graph's binary
// CSR format verbatim. docs/PERSISTENCE.md is the normative
// specification; TestPersistenceDocSync (internal/persist) fails when
// it and the constants here diverge.
package segment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"unsafe"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Magic opens every segment.
var Magic = [4]byte{'O', 'C', 'S', 'G'}

// Version is the segment format version this package reads and writes.
const Version = 1

// Section tags, in the order segments write them. Unknown tags are
// skippable (sections are length-prefixed), so additive sections do not
// require a version bump.
var (
	// SecMeta is the JSON generation metadata (Meta).
	SecMeta = [4]byte{'M', 'E', 'T', 'A'}
	// SecGraph is 4 alignment pad bytes followed by the binary CSR graph
	// exactly as graph.WriteBinary emits it.
	SecGraph = [4]byte{'G', 'R', 'P', 'H'}
	// SecCover is the served communities (count, then length-prefixed
	// member lists, int32 LE).
	SecCover = [4]byte{'C', 'O', 'V', 'R'}
	// SecTable is the local→global translation table for this
	// generation's node set; empty on the single-graph role.
	SecTable = [4]byte{'T', 'A', 'B', 'L'}
	// SecEnd terminates a segment. Bytes without it are a torn write and
	// are never served.
	SecEnd = [4]byte{'E', 'N', 'D', 'S'}
)

// headerSize is the segment header: magic, version u32.
const headerSize = 4 + 4

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

// Meta is the META section payload.
type Meta struct {
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

// Data is one generation as a segment holds it: the META facts, the
// graph, the cover and the translation table (nil on the single-graph
// role).
type Data struct {
	Meta
	Graph *graph.Graph
	Cover *cover.Cover
	Table []int32
}

// Encode returns d as a segment.
func (d *Data) Encode() ([]byte, error) {
	meta, err := json.Marshal(d.Meta)
	if err != nil {
		return nil, fmt.Errorf("segment: encoding meta: %w", err)
	}
	n, memberships := d.Graph.N(), 0
	for _, c := range d.Cover.Communities {
		memberships += len(c)
	}
	var buf bytes.Buffer
	buf.Grow(headerSize + 5*(secHeaderSize+8) + len(meta) + graphHead + 8*(n+1) + 8*int(d.Graph.M()) +
		4 + 4*(d.Cover.Len()+memberships) + 4 + 4*len(d.Table))
	buf.Write(Magic[:])
	buf.Write(binary.LittleEndian.AppendUint32(nil, Version))
	section(&buf, SecMeta, func() { buf.Write(meta) })
	section(&buf, SecGraph, func() {
		buf.Write([]byte{0, 0, 0, 0}) // aligns the CSR offsets array at +32
		err = graph.WriteBinary(&buf, d.Graph)
	})
	if err != nil {
		return nil, fmt.Errorf("segment: encoding graph: %w", err)
	}
	section(&buf, SecCover, func() { buf.Write(encodeCover(buf.AvailableBuffer(), d.Cover)) })
	section(&buf, SecTable, func() { buf.Write(encodeTable(buf.AvailableBuffer(), d.Table)) })
	section(&buf, SecEnd, func() {})
	return buf.Bytes(), nil
}

// section appends one section to buf — its header, the payload write
// appends, zero padding to the next 8-byte boundary — and fills the
// header's length and checksum in once the payload is there.
func section(buf *bytes.Buffer, tag [4]byte, write func()) {
	start := buf.Len()
	var head [secHeaderSize]byte
	copy(head[:4], tag[:])
	buf.Write(head[:])
	write()
	b := buf.Bytes()
	payload := b[start+secHeaderSize:]
	binary.LittleEndian.PutUint64(b[start+8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(b[start+16:], wal.Checksum(payload))
	buf.Write(make([]byte, (8-len(payload)%8)%8))
}

// Decode validates and decodes a segment. Every section's checksum is
// verified and the terminating ENDS section is required, so torn or
// corrupted bytes fail here instead of serving bad state; the graph's
// dimensions must be the ones META declares, every cover member a node
// of it, and a table at least as long as the graph. Every count is
// checked against the bytes that back it before anything is allocated.
//
// The graph's CSR arrays alias data wherever it is 8-byte aligned (an
// mmap'd file, a heap buffer), so data must outlive the graph. trusted
// says the caller vouches for the bytes — its own checksummed file — and
// only the CSR bounds are re-checked; otherwise the CSR is validated in
// full (graph.CheckCSR), as bytes from a peer must be.
func Decode(data []byte, trusted bool) (*Data, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("segment: %d bytes, shorter than a segment header", len(data))
	}
	if [4]byte(data[:4]) != Magic {
		return nil, fmt.Errorf("segment: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("segment: unsupported version %d", v)
	}

	d := &Data{}
	var sawEnd, sawMeta, sawGraph, sawCover bool
	off := int64(headerSize)
	for off < int64(len(data)) && !sawEnd {
		if int64(len(data))-off < secHeaderSize {
			return nil, fmt.Errorf("segment: truncated section header at offset %d", off)
		}
		head := data[off : off+secHeaderSize]
		tag := [4]byte(head[:4])
		plen := int64(binary.LittleEndian.Uint64(head[8:16]))
		crc := binary.LittleEndian.Uint32(head[16:20])
		if plen < 0 || plen > maxSectionBytes {
			return nil, fmt.Errorf("segment: section %q declares %d bytes", tag[:], plen)
		}
		body := off + secHeaderSize
		if body+plen > int64(len(data)) {
			return nil, fmt.Errorf("segment: section %q truncated (%d bytes declared at offset %d)", tag[:], plen, off)
		}
		payload := data[body : body+plen]
		if got := wal.Checksum(payload); got != crc {
			return nil, fmt.Errorf("segment: section %q checksum %08x != %08x", tag[:], got, crc)
		}
		var err error
		switch tag {
		case SecMeta:
			if err = json.Unmarshal(payload, &d.Meta); err != nil {
				err = fmt.Errorf("decoding meta: %w", err)
			}
			sawMeta = true
		case SecGraph:
			d.Graph, err = decodeGraphPayload(payload, trusted)
			sawGraph = true
		case SecCover:
			d.Cover, err = decodeCover(payload)
			sawCover = true
		case SecTable:
			d.Table, err = decodeTable(payload)
		case SecEnd:
			sawEnd = true
		default:
			// Length-prefixed unknown sections are forward-compatible:
			// skip.
		}
		if err != nil {
			return nil, fmt.Errorf("segment: %w", err)
		}
		off = body + plen + int64((8-plen%8)%8)
	}
	if !sawEnd {
		return nil, fmt.Errorf("segment: missing ENDS section — torn segment write")
	}
	if !sawMeta || !sawGraph || !sawCover {
		return nil, fmt.Errorf("segment: incomplete (meta %v, graph %v, cover %v)", sawMeta, sawGraph, sawCover)
	}
	n := d.Graph.N()
	if d.Info.Nodes != n || d.Info.Edges != d.Graph.M() {
		return nil, fmt.Errorf("segment: meta declares %d nodes/%d edges, graph has %d/%d", d.Info.Nodes, d.Info.Edges, n, d.Graph.M())
	}
	for _, c := range d.Cover.Communities {
		for _, v := range c {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("segment: cover member %d outside graph of %d nodes", v, n)
			}
		}
	}
	if d.Table != nil && len(d.Table) < n {
		return nil, fmt.Errorf("segment: table has %d entries for a %d-node graph", len(d.Table), n)
	}
	return d, nil
}

// PartitionMap decodes the partition map d was routed under: nil at
// the epoch-0 base map, which no segment records. An epoch and map
// bytes that disagree are an error.
func (d *Data) PartitionMap() (*shard.PartitionMap, error) {
	if len(d.PMap) == 0 {
		if d.Epoch != 0 {
			return nil, fmt.Errorf("records partition epoch %d but carries no map", d.Epoch)
		}
		return nil, nil
	}
	pm, err := shard.DecodePartitionMap(d.PMap)
	if err != nil {
		return nil, fmt.Errorf("decoding partition map: %w", err)
	}
	if pm.Epoch != d.Epoch {
		return nil, fmt.Errorf("partition map is at epoch %d but meta records %d", pm.Epoch, d.Epoch)
	}
	return pm, nil
}

// graphHead is a GRPH payload's fixed part: the pad, then graph's
// binary header — magic, version, node count, half-edge count.
const graphHead = 4 + 4 + 8 + 8 + 8

// decodeGraphPayload parses a GRPH section: 4 pad bytes, then the
// binary CSR format of graph.WriteBinary, whose declared dimensions
// must account for the payload exactly. The CSR arrays alias the
// payload when it is 8-byte aligned and are copied out by the stock
// reader otherwise; see Decode for trusted.
func decodeGraphPayload(p []byte, trusted bool) (*graph.Graph, error) {
	if len(p) < graphHead {
		return nil, fmt.Errorf("graph section %d bytes, shorter than its header", len(p))
	}
	n := int64(binary.LittleEndian.Uint64(p[16:24]))
	he := int64(binary.LittleEndian.Uint64(p[24:32]))
	if n < 0 || he < 0 || n >= maxSectionBytes || he >= maxSectionBytes || int64(len(p)) != graphHead+8*(n+1)+4*he {
		return nil, fmt.Errorf("graph section: %d bytes, dimensions (n=%d, half-edges=%d) do not match", len(p), n, he)
	}
	if uintptr(unsafe.Pointer(&p[0]))%8 != 0 {
		g, err := graph.ReadBinary(bytes.NewReader(p[4:]))
		if err != nil {
			return nil, fmt.Errorf("graph section: %w", err)
		}
		return g, nil
	}
	if string(p[4:8]) != "OCAG" {
		return nil, fmt.Errorf("graph section: bad inner magic %q", p[4:8])
	}
	if version := int64(binary.LittleEndian.Uint64(p[8:16])); version != 1 {
		return nil, fmt.Errorf("graph section: unsupported inner version %d", version)
	}
	offsets := unsafe.Slice((*int64)(unsafe.Pointer(&p[graphHead])), n+1)
	var adj []int32
	if he > 0 {
		adj = unsafe.Slice((*int32)(unsafe.Pointer(&p[graphHead+8*(n+1)])), he)
	}
	if trusted {
		if offsets[0] != 0 || offsets[n] != he {
			return nil, fmt.Errorf("graph section: corrupt offsets (first=%d, last=%d, want 0, %d)", offsets[0], offsets[n], he)
		}
	} else if err := graph.CheckCSR(offsets, adj); err != nil {
		return nil, fmt.Errorf("graph section: %w", err)
	}
	return graph.NewFromCSR(offsets, adj), nil
}

func encodeCover(out []byte, cv *cover.Cover) []byte {
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

func encodeTable(out []byte, table []int32) []byte {
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
