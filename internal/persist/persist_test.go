package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/segment"
	"repro/internal/wal"
)

// twoCliques builds two K_6 cliques sharing nodes 4 and 5 — the same
// fixture the refresh tests use, small enough that incremental replay
// is instant.
func twoCliques() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := int32(4); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func testSnap(gen, seq uint64) *refresh.Snapshot {
	g := twoCliques()
	cv := cover.NewCover([]cover.Community{{0, 1, 2, 3, 4, 5}, {4, 5, 6, 7, 8, 9}})
	snap := refresh.NewSnapshot(g, cv, nil, 0.5, 0)
	snap.Gen, snap.Seq = gen, seq
	return snap
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSegmentRoundTrip(t *testing.T) {
	snap := testSnap(3, 17)
	table := []int32{5, 8, 2, 9, 0, 1, 3, 4, 6, 7}
	path := filepath.Join(t.TempDir(), SegmentName(3))
	err := WriteSegment(path, SegmentData{
		Meta:  segment.Meta{Info: snap.Info(), Shard: 1, Shards: 4, MaxNodes: 64, GlobalNodes: 37},
		Graph: snap.Graph, Cover: snap.Cover, Table: table,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := LoadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Info.Gen != 3 || seg.Info.Seq != 17 || seg.Shard != 1 || seg.Shards != 4 || seg.MaxNodes != 64 || seg.GlobalNodes != 37 {
		t.Errorf("meta = %+v shard %d/%d max %d global %d", seg.Info, seg.Shard, seg.Shards, seg.MaxNodes, seg.GlobalNodes)
	}
	if !reflect.DeepEqual(seg.Table, table) {
		t.Errorf("table = %v, want %v", seg.Table, table)
	}
	if seg.Graph.N() != snap.Graph.N() || seg.Graph.M() != snap.Graph.M() {
		t.Errorf("graph %d nodes %d edges, want %d/%d", seg.Graph.N(), seg.Graph.M(), snap.Graph.N(), snap.Graph.M())
	}
	for v := int32(0); int(v) < seg.Graph.N(); v++ {
		if !reflect.DeepEqual(seg.Graph.Neighbors(v), snap.Graph.Neighbors(v)) {
			t.Fatalf("adjacency of node %d differs", v)
		}
	}
	if !reflect.DeepEqual(seg.Cover.Communities, snap.Cover.Communities) {
		t.Errorf("cover = %v, want %v", seg.Cover.Communities, snap.Cover.Communities)
	}
	rt := seg.Snapshot()
	if rt.Gen != 3 || rt.Seq != 17 || rt.Index == nil {
		t.Errorf("reassembled snapshot gen %d seq %d", rt.Gen, rt.Seq)
	}
}

// The segment header (magic, version) and section header (tag,
// reserved, length, CRC, pad) sizes docs/PERSISTENCE.md specifies.
const segHeaderSize, secHeaderSize = 8, 24

// TestSegmentCorruption is the crash-injection table: every way a
// segment file can be damaged must be detected at load, never served.
func TestSegmentCorruption(t *testing.T) {
	snap := testSnap(2, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(2))
	if err := WriteSegment(path, SegmentData{Meta: segment.Meta{Info: snap.Info()}, Graph: snap.Graph, Cover: snap.Cover}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated mid-section": func(b []byte) []byte { return b[:len(b)/2] },
		"missing ENDS":          func(b []byte) []byte { return b[:len(b)-secHeaderSize] },
		"checksum flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[segHeaderSize+secHeaderSize] ^= 0x40 // first byte of META payload
			return c
		},
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		},
		"bad version": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		},
		"empty": func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), SegmentName(2))
			if err := os.WriteFile(p, mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if seg, err := LoadSegment(p); err == nil {
				seg.Close()
				t.Fatal("corrupt segment loaded without error")
			}
		})
	}
}

func TestLoadEmptyDirIsColdStart(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segment != nil || len(st.Tail) != 0 || st.Stats.Source != "cold" {
		t.Errorf("cold start state = %+v", st)
	}
}

func TestSealLoadReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{FsyncEveryBatch: true})
	snap := testSnap(4, 10)
	if err := s.Seal(snap, nil); err != nil {
		t.Fatal(err)
	}
	// Log a post-segment tail: two batches, then a publish marker.
	if err := s.LogBatch([][2]int32{{0, 9}}, nil, 11); err != nil {
		t.Fatal(err)
	}
	if err := s.LogBatch([][2]int32{{1, 9}}, [][2]int32{{0, 1}}, 13); err != nil {
		t.Fatal(err)
	}
	after := testSnap(5, 13)
	if err := s.OnPublish(after, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// "Restart": a fresh store over the same dir.
	s2 := openStore(t, dir, Options{})
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segment == nil || st.Segment.Info.Gen != 4 {
		t.Fatalf("recovered segment = %+v", st.Segment)
	}
	if len(st.Tail) != 2 || st.Tail[0].Seq != 11 || st.Tail[1].Seq != 13 {
		t.Fatalf("tail = %+v, want seqs 11, 13", st.Tail)
	}
	if st.LastGen != 5 || st.LastSeq != 13 {
		t.Errorf("publish high-water = gen %d seq %d, want 5/13", st.LastGen, st.LastSeq)
	}
	if st.Stats.Source != "segment+wal" || st.Stats.ReplayedOps != 3 {
		t.Errorf("stats = %+v", st.Stats)
	}

	got, err := replaySingle(st, refresh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 5 || got.Seq != 13 {
		t.Errorf("replayed snapshot gen %d seq %d, want 5/13", got.Gen, got.Seq)
	}
	if !got.Graph.HasEdge(0, 9) || !got.Graph.HasEdge(1, 9) || got.Graph.HasEdge(0, 1) {
		t.Error("replayed graph does not reflect the WAL tail")
	}
}

func TestLoadTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	snap := testSnap(2, 3)
	if err := s.Seal(snap, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.LogBatch([][2]int32{{0, 9}}, nil, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.LogBatch([][2]int32{{1, 9}}, nil, 5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Tear the tail mid-record: the last batch must be dropped, the
	// first survives.
	walPath := filepath.Join(dir, WALName(2))
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := openStore(t, dir, Options{}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stats.TornTail {
		t.Error("torn tail not reported")
	}
	if len(st.Tail) != 1 || st.Tail[0].Seq != 4 {
		t.Fatalf("tail = %+v, want only seq 4", st.Tail)
	}
	got, err := replaySingle(st, refresh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Graph.HasEdge(0, 9) || got.Graph.HasEdge(1, 9) {
		t.Error("replay does not match the intact WAL prefix")
	}
}

func TestLoadFallsBackOverCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Retain: 5})
	if err := s.Seal(testSnap(2, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(testSnap(6, 9), nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newer segment (flip a payload byte): recovery must
	// fall back to generation 2.
	p := filepath.Join(dir, SegmentName(6))
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+secHeaderSize] ^= 0x01 // first META payload byte
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := openStore(t, dir, Options{Retain: 5}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segment == nil || st.Segment.Info.Gen != 2 {
		t.Fatalf("recovered segment gen = %+v, want fallback to 2", st.Segment)
	}
	if st.Stats.SkippedSegments != 1 {
		t.Errorf("skipped = %d, want 1", st.Stats.SkippedSegments)
	}
	// Fallback is best-effort: the live WAL was rotated at gen 6, so
	// batches between the generations are gone and the high-water mark
	// is the surviving segment's.
	if st.LastGen != 2 {
		t.Errorf("LastGen = %d, want 2", st.LastGen)
	}
}

func TestRetentionPrunes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Retain: 2})
	for gen := uint64(1); gen <= 5; gen++ {
		if err := s.Seal(testSnap(gen, gen), nil); err != nil {
			t.Fatal(err)
		}
	}
	gens := s.Generations()
	if !reflect.DeepEqual(gens, []uint64{4, 5}) {
		t.Fatalf("retained = %v, want [4 5]", gens)
	}
	wals := s.listWALs()
	if !reflect.DeepEqual(wals, []uint64{5}) {
		t.Fatalf("WALs = %v, want only the live [5]", wals)
	}
	// Retained generations stay readable for point-in-time reads.
	seg, err := s.OpenGeneration(4)
	if err != nil {
		t.Fatal(err)
	}
	seg.Close()
	if _, err := s.OpenGeneration(1); err == nil {
		t.Error("pruned generation still opens")
	}
}

func TestOnPublishWritesSegmentEveryN(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentEvery: 2, Retain: 10})
	if err := s.Seal(testSnap(1, 0), nil); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(2); gen <= 5; gen++ {
		if err := s.LogEdgeBatch(wal.EdgeBatch{Seq: gen, Add: [][2]int32{{0, 9}}}); err != nil {
			t.Fatal(err)
		}
		if err := s.OnPublish(testSnap(gen, gen), nil); err != nil {
			t.Fatal(err)
		}
	}
	if gens := s.Generations(); !reflect.DeepEqual(gens, []uint64{1, 3, 5}) {
		t.Fatalf("segments = %v, want [1 3 5] (every 2nd publish)", gens)
	}
}

func TestStoreIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Shard: 0, Shards: 2})
	if err := s.Seal(testSnap(1, 0), []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	wrong := openStore(t, dir, Options{Shard: 1, Shards: 2})
	if _, err := wrong.Load(); err == nil {
		t.Fatal("shard 1 loaded shard 0's segment")
	}
}

// TestParentCommitSegmentDecodes loads a segment whose bytes were
// written by the commit before META gained global_nodes: it must decode
// unchanged, report GlobalNodes 0 (the signal cmd/ocad falls back to
// parsing -in on), and a store opened over it must stamp the bounds it
// is then given into its next seal.
func TestParentCommitSegmentDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-"+SegmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("global_nodes")) {
		t.Fatal("fixture is not a parent-commit segment: it names global_nodes")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentName(3)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, Options{MaxNodes: 80})
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Segment.Close()
	if seg := st.Segment; seg.Info.Gen != 3 || seg.Info.Seq != 17 || seg.MaxNodes != 80 || seg.GlobalNodes != 0 || seg.Graph.N() != 10 {
		t.Fatalf("parent segment decoded as gen %d seq %d max %d global %d nodes %d, want 3/17/80/0/10",
			seg.Info.Gen, seg.Info.Seq, seg.MaxNodes, seg.GlobalNodes, seg.Graph.N())
	}

	// The boot that parsed -in for the missing count hands it over, and
	// its boot seal — a no-op on an unchanged identity — records it at
	// the same generation.
	if err := s.Seal(st.Segment.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, SegmentName(3))); !bytes.Equal(got, raw) {
		t.Fatal("a seal at the recovered generation and identity rewrote the segment")
	}
	s.SetNodeBounds(10, 80)
	if err := s.Seal(st.Segment.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	seg, err := LoadSegment(filepath.Join(dir, SegmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.GlobalNodes != 10 || seg.MaxNodes != 80 || seg.Info != st.Segment.Info {
		t.Errorf("resealed segment records global %d max %d info %+v, want 10/80 and the recovered info %+v",
			seg.GlobalNodes, seg.MaxNodes, seg.Info, st.Segment.Info)
	}
	if n := s.Stats().Segments; n != 1 {
		t.Errorf("store counts %d segments after an in-place reseal, want 1", n)
	}
}

// TestMetaOmitsUnknownGlobalNodes pins the additive encoding: a store
// that was never told the global node count writes the META payload the
// parent commit wrote, key for key.
func TestMetaOmitsUnknownGlobalNodes(t *testing.T) {
	snap := testSnap(1, 0)
	path := filepath.Join(t.TempDir(), SegmentName(1))
	if err := WriteSegment(path, SegmentData{Meta: segment.Meta{Info: snap.Info(), MaxNodes: 80}, Graph: snap.Graph, Cover: snap.Cover}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("global_nodes")) {
		t.Error("META names global_nodes although none was given")
	}
}
