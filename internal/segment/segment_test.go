package segment

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/shard"
)

// sample is a small sharded generation: two K_4s joined by an edge, a
// cover over them, a table running one entry past the graph (pending
// growth, as a full transfer ships it) and a rebalanced partition map.
func sample(t testing.TB) *Data {
	b := graph.NewBuilder(8)
	for _, q := range [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for i := range q {
			for j := i + 1; j < len(q); j++ {
				b.AddEdge(q[i], q[j])
			}
		}
	}
	b.AddEdge(3, 4)
	g := b.Build()
	cv := cover.NewCover([]cover.Community{{0, 1, 2, 3}, {3, 4, 5, 6, 7}})
	snap := refresh.NewSnapshot(g, cv, nil, 0.5, 0)
	snap.Gen, snap.Seq = 4, 9
	pm, err := shard.NewPartitionMap(2)
	if err != nil {
		t.Fatal(err)
	}
	if pm, err = pm.Move(0, 8, 0, 1); err != nil {
		t.Fatal(err)
	}
	return &Data{
		Meta:  Meta{Info: snap.Info(), Shard: 1, Shards: 2, MaxNodes: 64, GlobalNodes: 16, Epoch: pm.Epoch, PMap: pm.Encode()},
		Graph: g, Cover: cv, Table: []int32{1, 3, 5, 7, 9, 11, 13, 15, 17},
	}
}

// same reports whether two decoded segments hold the same generation.
func same(a, b *Data) bool {
	am, bm := a.Meta, b.Meta
	am.PMap, bm.PMap = nil, nil // an empty map is no map
	return reflect.DeepEqual(am, bm) && bytes.Equal(a.PMap, b.PMap) &&
		reflect.DeepEqual(a.Graph, b.Graph) && reflect.DeepEqual(a.Cover.Communities, b.Cover.Communities) &&
		slices.Equal(a.Table, b.Table)
}

func TestSegmentEncodeDecode(t *testing.T) {
	want := sample(t)
	data, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if !same(got, want) {
		t.Fatalf("decoded %+v, encoded %+v", got, want)
	}
	pm, err := got.PartitionMap()
	if err != nil || pm.Epoch != 1 || len(pm.Ranges) != 1 {
		t.Fatalf("partition map %+v, %v", pm, err)
	}
	// The zero-copy path reads the same bytes the same way.
	aligned := make([]int64, (len(data)+7)/8)
	buf := unsafeBytes(aligned)[:len(data)]
	copy(buf, data)
	if zc, err := Decode(buf, true); err != nil || !same(zc, want) {
		t.Fatalf("zero-copy decode: %v", err)
	}
}

func unsafeBytes(s []int64) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s)) }

// TestSegmentDecodeRejects: what a segment's facts contradict is refused.
func TestSegmentDecodeRejects(t *testing.T) {
	mutate := func(edit func(*Data)) []byte {
		d := sample(t)
		edit(d)
		data, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, data := range map[string][]byte{
		"nodes":        mutate(func(d *Data) { d.Info.Nodes++ }),
		"edges":        mutate(func(d *Data) { d.Info.Edges-- }),
		"member":       mutate(func(d *Data) { d.Cover = cover.NewCover([]cover.Community{{0, 8}}) }),
		"short table":  mutate(func(d *Data) { d.Table = d.Table[:7] }),
		"epoch no map": mutate(func(d *Data) { d.PMap = nil }),
	} {
		d, err := Decode(data, false)
		if err == nil {
			_, err = d.PartitionMap()
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzSegment throws arbitrary bytes at the segment decoder — what a
// mirror's full transfer feeds it from a peer. It must never panic,
// never allocate beyond what the input's checked lengths back (plus the
// graph reader's fixed buffer), and whatever it accepts must re-encode
// to the same generation.
func FuzzSegment(f *testing.F) {
	valid, err := sample(f).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-secHeaderSize]) // torn: no ENDS
	f.Add(valid[:headerSize+secHeaderSize+5])
	f.Add([]byte("OCSG"))
	flipped := bytes.Clone(valid)
	flipped[headerSize+secHeaderSize] ^= 0x40 // META payload: checksum mismatch
	f.Add(flipped)
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(huge[headerSize+8:], 1<<40) // META declares 1 TiB
	f.Add(huge)
	single := sample(f)
	single.Shards, single.Table, single.Epoch, single.PMap = 0, nil, 0, nil
	if data, err := single.Encode(); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := Decode(data, false)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+4<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := d.Encode()
		if err != nil {
			t.Fatalf("accepted segment does not re-encode: %v", err)
		}
		d2, err := Decode(again, false)
		if err != nil || !same(d, d2) {
			t.Fatalf("re-encoded segment decodes to another generation: %v", err)
		}
	})
}
