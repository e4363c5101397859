package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The on-disk constants below are normative: docs/PERSISTENCE.md
// describes them and TestPersistenceDocSync (internal/persist) fails if
// the two diverge.

// MagicLog opens every WAL file.
var MagicLog = [4]byte{'O', 'C', 'A', 'W'}

// VersionLog is the WAL format version this package reads and writes.
const VersionLog = 1

// Record types. A reader must stop (treating the file as ending) at the
// first record whose type it does not know only if it cannot skip it;
// since every record is length-prefixed, unknown types are skippable —
// forward-compatible additive records are allowed without a version
// bump.
const (
	// RecEdgeBatch is one accepted mutation batch: the durable unit of
	// /v1/edges. Payload: seq u64, base u32, nNew u32, nAdd u32,
	// nRemove u32, then nNew locals (i32), nAdd pairs (i32,i32), nRemove
	// pairs (i32,i32).
	RecEdgeBatch = byte(1)
	// RecPublish marks a published generation: gen u64, seq u64 (the
	// ops included in that generation). Recovery uses the last publish
	// marker to restore generation numbering after replay.
	RecPublish = byte(2)
	// RecCoverPatch describes what a published generation changed in the
	// cover relative to its predecessor (see CoverPatch). It is written
	// immediately before the generation's publish marker, in the same
	// write; recovery folds described publishes instead of re-deriving
	// them. Additive: a reader that does not know it skips it and
	// re-derives.
	RecCoverPatch = byte(3)
)

// Rebuild modes as CoverPatch.Mode stores them.
const (
	PatchFull        = byte(0)
	PatchIncremental = byte(1)
	PatchFastpath    = byte(2)
)

// MaxRecordBytes caps a record's declared payload size when parsing, so
// a corrupt length prefix cannot demand an absurd allocation.
const MaxRecordBytes = 1 << 24

// headerSize is the WAL file header: magic, version u32, baseGen u64.
const headerSize = 4 + 4 + 8

// frameHead is the per-record frame: payload length u32, CRC u32 (over
// the type byte and payload), type byte.
const frameHead = 4 + 4 + 1

// castagnoli is the CRC-32C polynomial table shared by WAL records and
// segment sections.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C over b — the checksum every WAL record and
// segment section carries.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ErrTorn marks a WAL tail that ends mid-record — a crash between
// writing and syncing. Everything before the torn record is valid;
// recovery truncates at the reported offset and replays the prefix.
var ErrTorn = errors.New("wal: torn record at tail")

// Header identifies a WAL file: the generation of the snapshot segment
// it logs batches after.
type Header struct {
	Version int
	BaseGen uint64
}

// Record is one framed WAL entry.
type Record struct {
	Type    byte
	Payload []byte
}

// EdgeBatch is the payload of a RecEdgeBatch record: one accepted
// mutation batch with its cumulative operation sequence number (the
// worker's op count after this batch) and, on sharded deployments, the
// translation-table growth shipped alongside it (Base/NewLocals mirror
// shard.Batch; both are zero on the single-graph role).
type EdgeBatch struct {
	Seq       uint64
	Base      int
	NewLocals []int32
	Add       [][2]int32
	Remove    [][2]int32
}

// Publish is the payload of a RecPublish record.
type Publish struct {
	Gen uint64
	Seq uint64
}

// CoverPatch is the payload of a RecCoverPatch record: the cover-level
// result of one publish, relative to the generation before it. The
// embedded Publish names the generation it produces, exactly as the
// marker that follows it does. Removed lists, ascending, the previous
// generation's community ids absent from the new cover; Fresh holds the
// communities appended after the survivors (the whole cover on a full
// publish), before the canonical sort. Carried marks a publish whose
// rebuild failed and carried the previous cover over.
type CoverPatch struct {
	Publish
	Mode    byte
	Carried bool
	C       float64
	Dirty   uint32
	Removed []int32
	Fresh   [][]int32
}

// coverPatchHead is the fixed part of a cover-patch payload: gen, seq,
// mode, carried, c, dirty, nRemoved, nFresh.
const coverPatchHead = 8 + 8 + 1 + 1 + 8 + 4 + 4 + 4

// encode encodes b as a RecEdgeBatch payload.
func (b EdgeBatch) encode() []byte {
	n := 8 + 4 + 4 + 4 + 4 + 4*len(b.NewLocals) + 8*len(b.Add) + 8*len(b.Remove)
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint64(out, b.Seq)
	out = binary.LittleEndian.AppendUint32(out, uint32(b.Base))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.NewLocals)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Add)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Remove)))
	for _, v := range b.NewLocals {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	for _, e := range b.Add {
		out = binary.LittleEndian.AppendUint32(out, uint32(e[0]))
		out = binary.LittleEndian.AppendUint32(out, uint32(e[1]))
	}
	for _, e := range b.Remove {
		out = binary.LittleEndian.AppendUint32(out, uint32(e[0]))
		out = binary.LittleEndian.AppendUint32(out, uint32(e[1]))
	}
	return out
}

// DecodeEdgeBatch parses a RecEdgeBatch payload.
func DecodeEdgeBatch(p []byte) (EdgeBatch, error) {
	var b EdgeBatch
	if len(p) < 24 {
		return b, fmt.Errorf("wal: edge-batch payload %d bytes, want >= 24", len(p))
	}
	b.Seq = binary.LittleEndian.Uint64(p[0:])
	base := binary.LittleEndian.Uint32(p[8:])
	nNew := binary.LittleEndian.Uint32(p[12:])
	nAdd := binary.LittleEndian.Uint32(p[16:])
	nRemove := binary.LittleEndian.Uint32(p[20:])
	const maxInt32 = 1 << 31
	if base >= maxInt32 {
		return b, fmt.Errorf("wal: edge-batch base %d out of range", base)
	}
	b.Base = int(base)
	want := 24 + 4*int64(nNew) + 8*int64(nAdd) + 8*int64(nRemove)
	if int64(len(p)) != want {
		return b, fmt.Errorf("wal: edge-batch payload %d bytes, counts demand %d", len(p), want)
	}
	p = p[24:]
	if nNew > 0 {
		b.NewLocals = make([]int32, nNew)
		for i := range b.NewLocals {
			b.NewLocals[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
		}
		p = p[4*nNew:]
	}
	readPairs := func(n uint32) [][2]int32 {
		if n == 0 {
			return nil
		}
		out := make([][2]int32, n)
		for i := range out {
			out[i][0] = int32(binary.LittleEndian.Uint32(p[8*i:]))
			out[i][1] = int32(binary.LittleEndian.Uint32(p[8*i+4:]))
		}
		p = p[8*n:]
		return out
	}
	b.Add = readPairs(nAdd)
	b.Remove = readPairs(nRemove)
	return b, nil
}

func (pub Publish) encode() []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out[0:], pub.Gen)
	binary.LittleEndian.PutUint64(out[8:], pub.Seq)
	return out
}

// DecodePublish parses a RecPublish payload.
func DecodePublish(p []byte) (Publish, error) {
	if len(p) != 16 {
		return Publish{}, fmt.Errorf("wal: publish payload %d bytes, want 16", len(p))
	}
	return Publish{
		Gen: binary.LittleEndian.Uint64(p[0:]),
		Seq: binary.LittleEndian.Uint64(p[8:]),
	}, nil
}

// encodedLen is the payload size encode would produce, computed without
// building it so an over-cap patch costs nothing.
func (cp CoverPatch) encodedLen() int64 {
	n := int64(coverPatchHead) + 4*int64(len(cp.Removed))
	for _, c := range cp.Fresh {
		n += 4 + 4*int64(len(c))
	}
	return n
}

func (cp CoverPatch) encode() []byte {
	out := make([]byte, 0, cp.encodedLen())
	out = binary.LittleEndian.AppendUint64(out, cp.Gen)
	out = binary.LittleEndian.AppendUint64(out, cp.Seq)
	carried := byte(0)
	if cp.Carried {
		carried = 1
	}
	out = append(out, cp.Mode, carried)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cp.C))
	out = binary.LittleEndian.AppendUint32(out, cp.Dirty)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cp.Removed)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cp.Fresh)))
	for _, id := range cp.Removed {
		out = binary.LittleEndian.AppendUint32(out, uint32(id))
	}
	for _, c := range cp.Fresh {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c)))
		for _, v := range c {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	}
	return out
}

// DecodeCoverPatch parses a RecCoverPatch payload. Like DecodeEdgeBatch
// it checks every declared count against the bytes actually present
// before allocating, so a hostile count cannot demand memory the
// payload does not back. It checks the encoding only; whether the ids
// fit the cover the patch is applied to is the applier's question.
func DecodeCoverPatch(p []byte) (CoverPatch, error) {
	var cp CoverPatch
	if len(p) < coverPatchHead {
		return cp, fmt.Errorf("wal: cover-patch payload %d bytes, want >= %d", len(p), coverPatchHead)
	}
	cp.Gen = binary.LittleEndian.Uint64(p[0:])
	cp.Seq = binary.LittleEndian.Uint64(p[8:])
	cp.Mode = p[16]
	if cp.Mode > PatchFastpath {
		return cp, fmt.Errorf("wal: cover-patch mode %d unknown", cp.Mode)
	}
	if p[17] > 1 {
		return cp, fmt.Errorf("wal: cover-patch carried flag %d, want 0 or 1", p[17])
	}
	cp.Carried = p[17] == 1
	cp.C = math.Float64frombits(binary.LittleEndian.Uint64(p[18:]))
	cp.Dirty = binary.LittleEndian.Uint32(p[26:])
	nRemoved := binary.LittleEndian.Uint32(p[30:])
	nFresh := binary.LittleEndian.Uint32(p[34:])
	p = p[coverPatchHead:]
	// Every fresh community costs at least its length prefix.
	if 4*int64(nRemoved)+4*int64(nFresh) > int64(len(p)) {
		return cp, fmt.Errorf("wal: cover-patch declares %d removed ids and %d communities in %d bytes", nRemoved, nFresh, len(p))
	}
	if nRemoved > 0 {
		cp.Removed = make([]int32, nRemoved)
		for i := range cp.Removed {
			cp.Removed[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
		}
		p = p[4*nRemoved:]
	}
	if nFresh > 0 {
		cp.Fresh = make([][]int32, 0, nFresh)
	}
	for i := uint32(0); i < nFresh; i++ {
		if len(p) < 4 {
			return cp, fmt.Errorf("wal: cover-patch truncated at community %d", i)
		}
		m := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if 4*int64(m) > int64(len(p)) {
			return cp, fmt.Errorf("wal: cover-patch community %d declares %d members in %d bytes", i, m, len(p))
		}
		members := make([]int32, m)
		for j := range members {
			members[j] = int32(binary.LittleEndian.Uint32(p[4*j:]))
		}
		p = p[4*m:]
		cp.Fresh = append(cp.Fresh, members)
	}
	if len(p) != 0 {
		return cp, fmt.Errorf("wal: cover-patch payload has %d trailing bytes", len(p))
	}
	return cp, nil
}

// appendFrame appends one framed record to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum([]byte{typ}, castagnoli), castagnoli, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, typ)
	return append(dst, payload...)
}

// ReadLog parses an entire WAL stream. It returns the header, every
// intact record in order, and the number of bytes those cover. A tail
// that ends mid-record or fails its checksum stops the scan and is
// reported as an error wrapping ErrTorn — the records before it are
// still returned, and valid says where a recovery pass should truncate.
// Any other error means the file is not a WAL (bad magic/version).
func ReadLog(r io.Reader) (hdr Header, recs []Record, valid int64, err error) {
	var head [headerSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return hdr, nil, 0, fmt.Errorf("wal: reading header: %w", err)
	}
	if [4]byte(head[:4]) != MagicLog {
		return hdr, nil, 0, fmt.Errorf("wal: bad magic %q, not a WAL file", head[:4])
	}
	hdr.Version = int(binary.LittleEndian.Uint32(head[4:8]))
	if hdr.Version != VersionLog {
		return hdr, nil, 0, fmt.Errorf("wal: unsupported version %d", hdr.Version)
	}
	hdr.BaseGen = binary.LittleEndian.Uint64(head[8:16])
	valid = headerSize

	var fh [frameHead]byte
	for {
		n, err := io.ReadFull(r, fh[:])
		if err == io.EOF {
			return hdr, recs, valid, nil // clean end at a record boundary
		}
		if err != nil {
			return hdr, recs, valid, fmt.Errorf("%w: frame head %d of %d bytes at offset %d", ErrTorn, n, frameHead, valid)
		}
		plen := binary.LittleEndian.Uint32(fh[0:4])
		crc := binary.LittleEndian.Uint32(fh[4:8])
		typ := fh[8]
		if plen > MaxRecordBytes {
			return hdr, recs, valid, fmt.Errorf("%w: declared payload %d exceeds %d at offset %d", ErrTorn, plen, MaxRecordBytes, valid)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return hdr, recs, valid, fmt.Errorf("%w: payload truncated at offset %d", ErrTorn, valid)
		}
		if got := crc32.Update(crc32.Checksum([]byte{typ}, castagnoli), castagnoli, payload); got != crc {
			return hdr, recs, valid, fmt.Errorf("%w: checksum %08x != %08x at offset %d", ErrTorn, got, crc, valid)
		}
		recs = append(recs, Record{Type: typ, Payload: payload})
		valid += int64(frameHead) + int64(plen)
	}
}
