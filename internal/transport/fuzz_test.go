package transport

import (
	"bytes"
	"context"
	"encoding/base64"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/wal"
)

// FuzzChainExcerpt feeds arbitrary bytes to a mirror as a chain
// response: decoding and folding must never panic, whatever a peer
// sends, and a chain the mirror accepts must assemble into a generation
// its own facts describe — every community member a node of the graph,
// the index over exactly those memberships, the table covering the
// graph — whose links re-encode to a chain that folds to it again.
func FuzzChainExcerpt(f *testing.F) {
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
	h := http.Header{
		HeaderProtocol:     {strconv.Itoa(Version)},
		HeaderPartitionMap: {base64.StdEncoding.EncodeToString(w.PartitionMap().Encode())},
	}
	reencode := func(data []byte, edit func(*wal.Excerpt)) []byte {
		_, recs, _, err := wal.ReadLog(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		x, err := wal.Scan(recs)
		if err != nil {
			f.Fatal(err)
		}
		edit(&x)
		s := wal.NewStream(base.Gen)
		for i := range x.Publishes {
			_ = s.AppendEdgeBatch(x.Tail[i])
			_ = s.AppendPatchedPublish(x.Patches[i])
		}
		return s.Bytes()
	}
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
		body, err := shard.EncodeChain(base.Gen, links)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(reencode(body, func(x *wal.Excerpt) { x.Tail[0].NewLocals = nil }))
		f.Add(reencode(body, func(x *wal.Excerpt) { x.Patches[0].Fresh = append(x.Patches[0].Fresh, []int32{0, 1 << 20}) }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, table, links, err := readChain(data, h, base, baseTable, 2, base.Gen)
		if err != nil {
			return
		}
		n := snap.Graph.N()
		if len(table) < n || snap.Gen != links[len(links)-1].Gen || snap.Aux.(*shard.Meta).Locals == nil && n > 0 {
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
		again, err := shard.EncodeChain(base.Gen, links)
		if err != nil {
			t.Fatal(err)
		}
		snap2, _, _, err := readChain(again, h, base, baseTable, 2, base.Gen)
		if err != nil || snap2.Gen != snap.Gen || snap2.Graph.M() != snap.Graph.M() || snap2.Cover.Len() != snap.Cover.Len() {
			t.Fatalf("re-encoded links do not fold to the same generation: %v", err)
		}
	})
}
