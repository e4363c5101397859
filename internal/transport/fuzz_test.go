package transport

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/shard"
)

// FuzzSnapshotChain feeds arbitrary bytes to a mirror as a chain
// response: decoding and folding must never panic, whatever a peer
// sends, and a chain the mirror accepts must assemble into a generation
// its own facts describe — every community member a node of the graph,
// the index over exactly those memberships, the table covering the
// graph.
func FuzzSnapshotChain(f *testing.F) {
	pieces, err := shard.Split(twoCliques(f), 2)
	if err != nil {
		f.Fatal(err)
	}
	w, err := shard.NewWorker(pieces[0], 2, shard.Config{OCA: testOCA(), Debounce: time.Hour, IncrementalThreshold: 0.5}, 16)
	if err != nil {
		f.Fatal(err)
	}
	defer w.Close()
	base := w.Snapshot()
	baseTable := w.Table()[:base.Graph.N()]
	for i, b := range []shard.Batch{
		{Base: len(baseTable), NewLocals: []int32{10}, Add: [][2]int32{{0, int32(len(baseTable))}, {1, int32(len(baseTable))}}},
		{Remove: [][2]int32{{0, 1}}},
	} {
		if _, _, err := w.ApplyBatch(b); err != nil {
			f.Fatal(err)
		}
		if _, err := w.Flush(context.Background()); err != nil {
			f.Fatal(err)
		}
		head := w.Snapshot()
		links, ok := w.Chain(base.Gen, head)
		if !ok {
			f.Fatalf("publish %d: no chain from generation %d", i, base.Gen)
		}
		var buf bytes.Buffer
		if err := encodeChain(&buf, 0, 2, base.Gen, links); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		f.Add(bytes.Replace(buf.Bytes(), []byte(`"base":`), []byte(`"base":-`), 1))
		f.Add(bytes.Replace(buf.Bytes(), []byte(`"nodes":`), []byte(`"nodes":9`), 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := decodeChain(bytes.NewReader(data), 0, 2, base.Gen)
		if err != nil {
			return
		}
		snap, table, links, err := foldChain(base, baseTable, ch)
		if err != nil {
			return
		}
		n := snap.Graph.N()
		if len(table) < n || len(links) != len(ch.Links) || snap.Gen != ch.Links[len(ch.Links)-1].Info.Gen {
			t.Fatalf("accepted chain: generation %d, %d nodes, %d table entries, %d links", snap.Gen, n, len(table), len(links))
		}
		memberships := 0
		for ci, c := range snap.Cover.Communities {
			for _, v := range c {
				if v < 0 || int(v) >= n {
					t.Fatalf("community %d member %d outside [0, %d)", ci, v, n)
				}
			}
			memberships += len(c)
		}
		indexed := 0
		for v := int32(0); int(v) < n; v++ {
			indexed += len(snap.Index.Communities(v))
		}
		if indexed != memberships {
			t.Fatalf("index holds %d memberships, cover %d", indexed, memberships)
		}
	})
}
