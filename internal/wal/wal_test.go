package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testBatch(seq uint64) EdgeBatch {
	return EdgeBatch{
		Seq:       seq,
		Base:      7,
		NewLocals: []int32{100, 205},
		Add:       [][2]int32{{0, 1}, {2, 3}},
		Remove:    [][2]int32{{4, 5}},
	}
}

func writeLog(t *testing.T, recs ...func(*Log) error) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal-0000000000000001.ocawal")
	l, err := Create(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range recs {
		if err := fn(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestLogRoundTrip(t *testing.T) {
	b1, b2 := testBatch(3), EdgeBatch{Seq: 9, Add: [][2]int32{{8, 9}}}
	pub := Publish{Gen: 4, Seq: 9}
	path, raw := writeLog(t,
		func(l *Log) error { return l.AppendEdgeBatch(b1) },
		func(l *Log) error { return l.AppendPublish(pub) },
		func(l *Log) error { return l.AppendEdgeBatch(b2) },
	)

	hdr, recs, valid, err := ReadLogFile(path)
	if err != nil {
		t.Fatalf("ReadLogFile: %v", err)
	}
	if hdr.Version != VersionLog || hdr.BaseGen != 1 {
		t.Errorf("header = %+v, want version %d baseGen 1", hdr, VersionLog)
	}
	if valid != int64(len(raw)) {
		t.Errorf("valid = %d, want whole file %d", valid, len(raw))
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	got1, err := DecodeEdgeBatch(recs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, b1) {
		t.Errorf("batch 1 = %+v, want %+v", got1, b1)
	}
	gotPub, err := DecodePublish(recs[1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotPub != pub {
		t.Errorf("publish = %+v, want %+v", gotPub, pub)
	}
	got2, err := DecodeEdgeBatch(recs[2].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, b2) {
		t.Errorf("batch 2 = %+v, want %+v", got2, b2)
	}
}

// TestTornTail proves the crash-mid-write semantics: any truncation of
// the file strictly inside a record yields ErrTorn with the intact
// prefix preserved, and truncation at a record boundary reads cleanly.
func TestTornTail(t *testing.T) {
	path, raw := writeLog(t,
		func(l *Log) error { return l.AppendEdgeBatch(testBatch(3)) },
		func(l *Log) error { return l.AppendEdgeBatch(testBatch(6)) },
	)
	_, recs, _, err := ReadLogFile(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("full read: %d recs, err %v", len(recs), err)
	}
	// The first record ends where the second frame starts; compute it
	// from the full read by re-reading a prefix-truncated buffer.
	rec1End := headerSize + frameHead + len(recs[0].Payload)

	for cut := rec1End + 1; cut < len(raw); cut++ {
		_, got, valid, err := ReadLog(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut at %d: err = %v, want ErrTorn", cut, err)
		}
		if len(got) != 1 || valid != int64(rec1End) {
			t.Fatalf("cut at %d: %d recs valid %d, want 1 recs valid %d", cut, len(got), valid, rec1End)
		}
	}
	// A boundary cut is a clean (not torn) end.
	_, got, valid, err := ReadLog(bytes.NewReader(raw[:rec1End]))
	if err != nil || len(got) != 1 || valid != int64(rec1End) {
		t.Fatalf("boundary cut: %d recs valid %d err %v", len(got), valid, err)
	}
}

func TestChecksumFlip(t *testing.T) {
	_, raw := writeLog(t, func(l *Log) error { return l.AppendEdgeBatch(testBatch(3)) })
	// Flip one payload bit: the record must be rejected as torn.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x01
	_, recs, valid, err := ReadLog(bytes.NewReader(flipped))
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	if len(recs) != 0 || valid != headerSize {
		t.Errorf("got %d recs valid %d, want 0 recs valid %d", len(recs), valid, headerSize)
	}
}

func TestBadHeader(t *testing.T) {
	for name, raw := range map[string][]byte{
		"empty":       {},
		"short":       {'O', 'C', 'A', 'W', 1},
		"wrong magic": append([]byte("NOPE"), make([]byte, 12)...),
		"wrong version": func() []byte {
			b := append([]byte{}, MagicLog[:]...)
			return append(b, []byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}...)
		}(),
	} {
		if _, _, _, err := ReadLog(bytes.NewReader(raw)); err == nil || errors.Is(err, ErrTorn) {
			t.Errorf("%s: err = %v, want hard (non-torn) error", name, err)
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	_, raw := writeLog(t)
	frame := make([]byte, frameHead)
	frame[0] = 0xFF
	frame[1] = 0xFF
	frame[2] = 0xFF
	frame[3] = 0x7F // declared payload ~2 GiB
	_, _, _, err := ReadLog(bytes.NewReader(append(raw, frame...)))
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn for oversize declaration", err)
	}
}

func TestDecodeEdgeBatchRejectsLengthMismatch(t *testing.T) {
	b := testBatch(1).encode()
	if _, err := DecodeEdgeBatch(b[:len(b)-2]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeEdgeBatch(append(b, 0)); err == nil {
		t.Error("padded payload decoded without error")
	}
	if _, err := DecodeEdgeBatch(nil); err == nil {
		t.Error("empty payload decoded without error")
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ocawal")
	l, err := Create(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := l.AppendEdgeBatch(testBatch(1)); err == nil {
		t.Error("append after close succeeded")
	}
}

func testPatch(gen, seq uint64) CoverPatch {
	return CoverPatch{
		Publish: Publish{Gen: gen, Seq: seq},
		Mode:    PatchIncremental, C: 0.4375, Dirty: 57,
		Removed: []int32{1, 4},
		Fresh:   [][]int32{{0, 1, 2, 9}, {3, 4, 5}},
	}
}

// TestPatchedPublishRoundTrip pins the cover-patch record: it decodes to
// what was appended, and it reaches the file in front of its marker as
// part of the same append — cut anywhere inside that append and neither
// record survives without the other except the patch alone, which names
// a generation no marker published.
func TestPatchedPublishRoundTrip(t *testing.T) {
	cp := testPatch(4, 9)
	carried := CoverPatch{Publish: Publish{Gen: 5, Seq: 11}, Mode: PatchFull, Carried: true, C: 0.5}
	path, raw := writeLog(t,
		func(l *Log) error { return l.AppendEdgeBatch(testBatch(9)) },
		func(l *Log) error { return l.AppendPatchedPublish(cp) },
		func(l *Log) error { return l.AppendPatchedPublish(carried) },
	)
	_, recs, _, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var types []byte
	for _, r := range recs {
		types = append(types, r.Type)
	}
	if want := []byte{RecEdgeBatch, RecCoverPatch, RecPublish, RecCoverPatch, RecPublish}; !bytes.Equal(types, want) {
		t.Fatalf("record types = %v, want %v", types, want)
	}
	for i, want := range map[int]CoverPatch{1: cp, 3: carried} {
		got, err := DecodeCoverPatch(recs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("patch at record %d = %+v, want %+v", i, got, want)
		}
		pub, err := DecodePublish(recs[i+1].Payload)
		if err != nil || pub != want.Publish {
			t.Errorf("marker after patch %d = %+v (%v), want %+v", i, pub, err, want.Publish)
		}
	}

	// Torn anywhere inside the first patch+marker append: the marker is
	// never readable without its patch.
	batchEnd := headerSize + frameHead + len(recs[0].Payload)
	patchEnd := batchEnd + frameHead + len(recs[1].Payload)
	appendEnd := patchEnd + frameHead + len(recs[2].Payload)
	for cut := batchEnd + 1; cut < appendEnd; cut++ {
		_, got, _, err := ReadLog(bytes.NewReader(raw[:cut]))
		if torn := errors.Is(err, ErrTorn); torn == (cut == patchEnd) {
			t.Fatalf("cut at %d: err = %v, want ErrTorn everywhere but at the frame boundary %d", cut, err, patchEnd)
		}
		if n := len(got); n != 1 && !(n == 2 && got[1].Type == RecCoverPatch) {
			t.Fatalf("cut at %d surfaced %d records, last type %d: a marker without its patch", cut, n, got[n-1].Type)
		}
	}
}

// TestEdgeBatchEncodedLen: encodedLen is the length encode produces,
// over random batches — empty ones and every field empty in turn
// included.
func TestEdgeBatchEncodedLen(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pairs := func() [][2]int32 {
		if rng.Intn(3) == 0 {
			return nil
		}
		out := make([][2]int32, rng.Intn(40))
		for i := range out {
			out[i] = [2]int32{rng.Int31(), rng.Int31()}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		b := EdgeBatch{Seq: rng.Uint64(), Base: rng.Intn(1 << 20), Add: pairs(), Remove: pairs()}
		if rng.Intn(2) == 0 {
			b.NewLocals = make([]int32, rng.Intn(40))
		}
		if got, want := b.encodedLen(), int64(len(b.encode())); got != want {
			t.Fatalf("trial %d: encodedLen = %d, encode wrote %d bytes", trial, got, want)
		}
	}
}

// TestOversizeBatchIsRefused: a batch whose record ReadLog would take
// for a torn tail is refused with an error and leaves the log file
// byte-identical, so nothing is acknowledged that recovery would drop,
// and every record the log did accept reads back; a Stream refuses the
// batch the same way.
func TestOversizeBatchIsRefused(t *testing.T) {
	huge := EdgeBatch{Seq: 2, Add: make([][2]int32, (MaxRecordBytes-24)/8+1)}
	if huge.encodedLen() <= MaxRecordBytes {
		t.Fatalf("fixture: %d bytes is within the cap", huge.encodedLen())
	}
	path := filepath.Join(t.TempDir(), "wal-0000000000000001.ocawal")
	l, err := Create(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendEdgeBatch(testBatch(1)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEdgeBatch(huge); err == nil {
		t.Fatal("over-cap batch appended without error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) || l.Size() != int64(len(before)) {
		t.Fatalf("refused append changed the log: %d bytes (Size %d), want %d", len(after), l.Size(), len(before))
	}
	// Every record the log accepted, before and after the refusal, reads
	// back.
	if err := l.AppendEdgeBatch(testBatch(3)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPublish(Publish{Gen: 2, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := ReadLogFile(path)
	if err != nil {
		t.Fatalf("ReadLogFile: %v", err)
	}
	x, err := Scan(recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []EdgeBatch{testBatch(1), testBatch(3)}; !reflect.DeepEqual(x.Tail, want) || len(x.Publishes) != 1 {
		t.Fatalf("read back %d batches and %d publishes, want the 2 accepted batches and 1 publish", len(x.Tail), len(x.Publishes))
	}
	s := NewStream(1)
	if err := s.AppendEdgeBatch(huge); err == nil {
		t.Error("stream framed an over-cap batch")
	}
	if len(s.Bytes()) != headerSize {
		t.Errorf("stream holds %d bytes after the refusal, want the %d-byte header", len(s.Bytes()), headerSize)
	}
}

// TestOversizePatchIsNotWritten: a patch that would not fit a record is
// left out and the marker is written alone, as before patches existed.
func TestOversizePatchIsNotWritten(t *testing.T) {
	huge := CoverPatch{Publish: Publish{Gen: 2, Seq: 1}, Fresh: [][]int32{make([]int32, MaxRecordBytes/4)}}
	path, _ := writeLog(t, func(l *Log) error { return l.AppendPatchedPublish(huge) })
	_, recs, _, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecPublish {
		t.Fatalf("records = %d (first type %d), want the publish marker alone", len(recs), recs[0].Type)
	}
	if pub, err := DecodePublish(recs[0].Payload); err != nil || pub != huge.Publish {
		t.Errorf("marker = %+v (%v), want %+v", pub, err, huge.Publish)
	}
}

// TestDecodeCoverPatchRejectsLengthMismatch mirrors the edge-batch test
// and adds the hostile counts: a declared count is checked against the
// bytes present before anything is allocated from it.
func TestDecodeCoverPatchRejectsLengthMismatch(t *testing.T) {
	b := testPatch(4, 9).encode()
	if _, err := DecodeCoverPatch(b[:len(b)-2]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeCoverPatch(append(b[:len(b):len(b)], 0)); err == nil {
		t.Error("padded payload decoded without error")
	}
	if _, err := DecodeCoverPatch(nil); err == nil {
		t.Error("empty payload decoded without error")
	}
	const nRemovedAt, nFreshAt, firstLenAt = 30, 34, coverPatchHead + 2*4
	for name, at := range map[string]int{"removed count": nRemovedAt, "fresh count": nFreshAt, "member count": firstLenAt} {
		hostile := append([]byte(nil), b...)
		copy(hostile[at:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := DecodeCoverPatch(hostile); err == nil {
				t.Errorf("%s of 2^32-1 decoded without error", name)
			}
		})
		// The error value and what was legitimately decoded before the
		// hostile field; 4 GiB of ids would not fit in a handful.
		if allocs > 8 {
			t.Errorf("%s of 2^32-1 cost %.0f allocations", name, allocs)
		}
	}
	for _, bad := range []struct {
		name string
		at   int
		val  byte
	}{{"mode", 16, 3}, {"carried flag", 17, 2}} {
		c := append([]byte(nil), b...)
		c[bad.at] = bad.val
		if _, err := DecodeCoverPatch(c); err == nil {
			t.Errorf("%s byte %d decoded without error", bad.name, bad.val)
		}
	}
}
