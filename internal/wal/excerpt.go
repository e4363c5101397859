package wal

import (
	"encoding/binary"
	"fmt"
)

// Excerpt is what a run of WAL records describes, each kind in log
// order: the tail recovery reads past a segment, or a snapshot chain a
// shard server ships a mirror — the same frames either way, written by
// a Log or a Stream and read back by ReadLog.
type Excerpt struct {
	Tail      []EdgeBatch
	Publishes []Publish
	Patches   []CoverPatch
}

// Scan decodes recs into the excerpt they hold. A cover patch that does
// not decode is left out — the publish it describes is then undescribed
// — while a batch or publish marker that does not decode is an error.
// Records of other types are skipped.
func Scan(recs []Record) (Excerpt, error) {
	var x Excerpt
	for _, rec := range recs {
		switch rec.Type {
		case RecEdgeBatch:
			b, err := DecodeEdgeBatch(rec.Payload)
			if err != nil {
				return x, err
			}
			x.Tail = append(x.Tail, b)
		case RecPublish:
			p, err := DecodePublish(rec.Payload)
			if err != nil {
				return x, err
			}
			x.Publishes = append(x.Publishes, p)
		case RecCoverPatch:
			if cp, err := DecodeCoverPatch(rec.Payload); err == nil {
				x.Patches = append(x.Patches, cp)
			}
		}
	}
	return x, nil
}

// Stream is a WAL built in memory — the header and frames a Log writes
// to its file — for a ReadLog on the other side of a connection. Unlike
// a Log it refuses a record over MaxRecordBytes instead of writing or
// dropping it: its reader has no publish to re-derive.
type Stream struct{ buf []byte }

// NewStream starts a stream based at generation baseGen.
func NewStream(baseGen uint64) *Stream { return &Stream{buf: appendHeader(nil, baseGen)} }

// AppendEdgeBatch frames b as Log.AppendEdgeBatch does.
func (s *Stream) AppendEdgeBatch(b EdgeBatch) error {
	if err := b.checkCap(); err != nil {
		return err
	}
	s.buf = appendFrame(s.buf, RecEdgeBatch, b.encode())
	return nil
}

// AppendPatchedPublish frames cp and its publish marker as
// Log.AppendPatchedPublish does.
func (s *Stream) AppendPatchedPublish(cp CoverPatch) error {
	if n := cp.encodedLen(); n > MaxRecordBytes {
		return fmt.Errorf("wal: cover patch of generation %d is %d bytes, over the %d-byte record cap", cp.Gen, n, MaxRecordBytes)
	}
	s.buf = appendPatchedPublish(s.buf, cp)
	return nil
}

// Bytes returns the stream so far.
func (s *Stream) Bytes() []byte { return s.buf }

// appendHeader appends the file header of a WAL based at baseGen.
func appendHeader(dst []byte, baseGen uint64) []byte {
	dst = append(dst, MagicLog[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, VersionLog)
	return binary.LittleEndian.AppendUint64(dst, baseGen)
}

// appendPatchedPublish appends cp's frame and its marker's: one write,
// so a reader finds the patch before the marker it describes or not at
// all.
func appendPatchedPublish(dst []byte, cp CoverPatch) []byte {
	dst = appendFrame(dst, RecCoverPatch, cp.encode())
	return appendFrame(dst, RecPublish, cp.Publish.encode())
}
