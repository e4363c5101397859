package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWALRecord throws arbitrary bytes at the WAL stream parser, the
// payload decoders and Scan — how recovery reads a log tail and a
// mirror a snapshot chain. The parser must never panic, never allocate beyond
// MaxRecordBytes per record, and must classify every input as exactly
// one of: clean read, torn tail (ErrTorn), or not-a-WAL.
func FuzzWALRecord(f *testing.F) {
	// Seed 1: a well-formed log with one batch and one publish marker.
	seed := func(build func(*bytes.Buffer)) []byte {
		var buf bytes.Buffer
		buf.Write(MagicLog[:])
		buf.Write([]byte{VersionLog, 0, 0, 0})
		buf.Write(make([]byte, 8)) // baseGen 0
		build(&buf)
		return buf.Bytes()
	}
	full := seed(func(buf *bytes.Buffer) {
		b := EdgeBatch{Seq: 1, Base: 2, NewLocals: []int32{9}, Add: [][2]int32{{0, 1}}, Remove: [][2]int32{{1, 2}}}
		buf.Write(appendFrame(nil, RecEdgeBatch, b.encode()))
		buf.Write(appendFrame(nil, RecPublish, Publish{Gen: 1, Seq: 1}.encode()))
	})
	f.Add(full)
	f.Add(full[:len(full)-3])           // torn tail
	f.Add(seed(func(*bytes.Buffer) {})) // header only
	f.Add([]byte("OCAG not a wal"))
	f.Add([]byte{})
	// Cover patches, one per rebuild mode, then two that lie about their
	// counts: one short of the members it declares, one whose counts
	// overflow the payload.
	patched := func(cp CoverPatch, mangle func([]byte) []byte) []byte {
		return seed(func(buf *bytes.Buffer) {
			buf.Write(appendFrame(nil, RecCoverPatch, mangle(cp.encode())))
			buf.Write(appendFrame(nil, RecPublish, cp.Publish.encode()))
		})
	}
	asIs := func(p []byte) []byte { return p }
	incremental := CoverPatch{Publish: Publish{Gen: 3, Seq: 8}, Mode: PatchIncremental, C: 0.25, Dirty: 12,
		Removed: []int32{0, 2}, Fresh: [][]int32{{1, 2, 3}, {4, 5, 6, 7}}}
	f.Add(patched(CoverPatch{Publish: Publish{Gen: 2, Seq: 4}, Mode: PatchFastpath, C: 0.25}, asIs))
	f.Add(patched(incremental, asIs))
	f.Add(patched(CoverPatch{Publish: Publish{Gen: 4, Seq: 9}, Mode: PatchFull, Carried: true, C: 0.5,
		Removed: []int32{0, 1, 2}, Fresh: [][]int32{{0, 1, 2, 3, 4}}}, asIs))
	f.Add(patched(incremental, func(p []byte) []byte { return p[:len(p)-6] }))
	f.Add(patched(incremental, func(p []byte) []byte {
		copy(p[30:], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // nRemoved, nFresh
		return p
	}))
	// A snapshot chain's excerpt: per publish one net batch, its patch
	// and its marker, as a Stream frames them.
	chain := NewStream(2)
	for _, cp := range []CoverPatch{incremental, {Publish: Publish{Gen: 4, Seq: 8}, Mode: PatchFastpath, C: 0.25}} {
		_ = chain.AppendEdgeBatch(EdgeBatch{Seq: cp.Seq, Base: 7, NewLocals: []int32{40}, Add: [][2]int32{{1, 7}}})
		_ = chain.AppendPatchedPublish(cp)
	}
	f.Add(chain.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, valid, err := ReadLog(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrTorn) {
			// Hard error: not a WAL. No records may be surfaced.
			if len(recs) != 0 {
				t.Fatalf("hard error %v returned %d records", err, len(recs))
			}
			return
		}
		if hdr.Version != VersionLog {
			t.Fatalf("accepted header version %d", hdr.Version)
		}
		if valid < headerSize || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside [header, len] for %d-byte input", valid, len(data))
		}
		// Every surfaced record must re-read identically from the valid
		// prefix — the truncate-and-replay invariant recovery relies on.
		_, recs2, valid2, err2 := ReadLog(bytes.NewReader(data[:valid]))
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("valid prefix did not re-read cleanly: %v (%d vs %d recs)", err2, len(recs2), len(recs))
		}
		// Scan — how recovery and a mirror read an excerpt — keeps exactly
		// the records that decode, and fails only on a batch or marker
		// that does not.
		var batches, pubs, patches int
		whole := true
		for _, rec := range recs {
			switch rec.Type {
			case RecEdgeBatch:
				b, err := DecodeEdgeBatch(rec.Payload)
				whole = whole && err == nil
				if err == nil {
					batches++
					got, err := DecodeEdgeBatch(b.encode())
					if err != nil || got.Seq != b.Seq || len(got.Add) != len(b.Add) {
						t.Fatalf("edge batch did not round-trip: %v", err)
					}
				}
			case RecPublish:
				p, err := DecodePublish(rec.Payload)
				whole = whole && err == nil
				if err == nil {
					pubs++
					if got, _ := DecodePublish(p.encode()); got != p {
						t.Fatalf("publish did not round-trip")
					}
				}
			case RecCoverPatch:
				if cp, err := DecodeCoverPatch(rec.Payload); err == nil {
					patches++
					if !bytes.Equal(cp.encode(), rec.Payload) {
						t.Fatalf("cover patch did not round-trip")
					}
					if cp.encodedLen() != int64(len(rec.Payload)) {
						t.Fatalf("cover patch encodedLen %d, payload %d bytes", cp.encodedLen(), len(rec.Payload))
					}
				}
			}
		}
		x, err := Scan(recs)
		if (err == nil) != whole || err == nil && (len(x.Tail) != batches || len(x.Publishes) != pubs || len(x.Patches) != patches) {
			t.Fatalf("scan kept %d/%d/%d records (%v) of %d/%d/%d decodable", len(x.Tail), len(x.Publishes), len(x.Patches), err, batches, pubs, patches)
		}
	})
}
