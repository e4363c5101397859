package shard

// Publishes as WAL records. A publish is logged as the edge batches it
// accepted, its cover patch and its publish marker; a chain of links is
// shipped as the same records, one net batch per publish, in a WAL
// excerpt based at the mirror's generation. FoldLog is the one driver
// that reads either back through a Fold.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/wal"
)

// PatchModes names refresh's rebuild modes by the WAL's mode byte
// (wal.DecodeCoverPatch rejects bytes beyond it).
var PatchModes = [...]string{
	wal.PatchFull:        refresh.ModeFull,
	wal.PatchIncremental: refresh.ModeIncremental,
	wal.PatchFastpath:    refresh.ModeFastpath,
}

// PatchRecord turns the cover patch of publish pub into its WAL record.
func PatchRecord(pub wal.Publish, p *refresh.Patch) wal.CoverPatch {
	cp := wal.CoverPatch{
		Publish: pub, Mode: byte(slices.Index(PatchModes[:], p.Mode)), Carried: p.Carried, C: p.C,
		Dirty: uint32(p.DirtyNodes), Removed: p.Removed,
	}
	if len(p.Fresh) > 0 {
		cp.Fresh = make([][]int32, len(p.Fresh))
		for i, c := range p.Fresh {
			cp.Fresh[i] = c
		}
	}
	return cp
}

// patchOf is PatchRecord's inverse.
func patchOf(cp *wal.CoverPatch) *refresh.Patch {
	p := &refresh.Patch{Mode: PatchModes[cp.Mode], Carried: cp.Carried, C: cp.C, DirtyNodes: int(cp.Dirty), Removed: cp.Removed}
	if len(cp.Fresh) > 0 {
		p.Fresh = make([]cover.Community, len(cp.Fresh))
		for i, c := range cp.Fresh {
			p.Fresh[i] = c
		}
	}
	return p
}

// FoldLog folds the publishes x describes, in order: each publish marker
// with a cover patch of the same generation and sequence number, its
// batches — those up to its sequence number in a log, the one net batch
// before it in a chain (net) — and its patch make one Step. It stops at
// the first publish that has no patch or does not fold, and returns the
// batches and publishes it consumed and why it stopped (nil when it
// folded every publish). A chain's batch is the whole publish: its table
// entries are exactly the nodes the publish grew by, so Base+len(NewLocals)
// is the node count it declares, and the folded patch (Last) carries its
// operations.
func (f *Fold) FoldLog(x *wal.Excerpt, net bool) (batches, pubs int, err error) {
	patches := make(map[uint64]*wal.CoverPatch, len(x.Patches))
	for i := range x.Patches {
		patches[x.Patches[i].Gen] = &x.Patches[i]
	}
	for _, pub := range x.Publishes {
		cp := patches[pub.Gen]
		if cp == nil || cp.Seq != pub.Seq {
			return batches, pubs, fmt.Errorf("shard: fold: publish %d (seq %d) has no cover patch", pub.Gen, pub.Seq)
		}
		end, nodes, p := batches, 0, patchOf(cp)
		if net {
			if end == len(x.Tail) {
				return batches, pubs, fmt.Errorf("shard: fold: publish %d has no batch", pub.Gen)
			}
			b := x.Tail[end]
			end++
			nodes = b.Base + len(b.NewLocals)
			p.PrevNodes, p.Add, p.Remove = b.Base, b.Add, b.Remove
		} else {
			for end < len(x.Tail) && x.Tail[end].Seq <= pub.Seq {
				end++
			}
		}
		group := make([]Batch, 0, end-batches)
		for _, b := range x.Tail[batches:end] {
			group = append(group, Batch{Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove})
		}
		if err := f.Step(pub.Gen, group, nodes, p); err != nil {
			return batches, pubs, err
		}
		batches = end
		pubs++
	}
	return batches, pubs, nil
}

// EncodeChain writes links — the publishes after generation since, in
// order — as a WAL excerpt based at since: per publish its net edge
// batch, then its cover patch and publish marker. A record over
// wal.MaxRecordBytes is an error: the chain cannot be shipped whole.
func EncodeChain(since uint64, links []*Link) ([]byte, error) {
	s := wal.NewStream(since)
	for _, l := range links {
		if err := s.AppendEdgeBatch(wal.EdgeBatch{Seq: l.Seq, Base: l.Base, NewLocals: l.NewLocals, Add: l.Add, Remove: l.Remove}); err != nil {
			return nil, err
		}
		if err := s.AppendPatchedPublish(PatchRecord(wal.Publish{Gen: l.Gen, Seq: l.Seq}, l.Patch)); err != nil {
			return nil, err
		}
	}
	return s.Bytes(), nil
}

// FoldChain replays a decoded chain onto base, a shard generation (its
// Meta attached), with table the mirror's translation table, and
// assembles the head generation under pm, the partition map the head
// was published under. Growth is capped by the table entries the mirror
// has plus those the chain ships — every node needs one — so no
// declared count can make the mirror allocate what the bytes do not
// back, and every publish is validated before it is applied (Fold). A
// one-link chain is assembled the way its publish was, patched from
// base; a longer one from scratch. The facts no record carries are set
// as recovery sets them: built now, in no time. It returns the head
// generation, the grown table and the links in memory form.
func FoldChain(base *refresh.Snapshot, table []int32, pm *PartitionMap, x *wal.Excerpt) (*refresh.Snapshot, []int32, []*Link, error) {
	if len(x.Publishes) == 0 || len(x.Patches) != len(x.Publishes) || len(x.Tail) != len(x.Publishes) {
		return nil, nil, nil, fmt.Errorf("shard: chain of %d batches, %d patches and %d publishes, want one of each per publish",
			len(x.Tail), len(x.Patches), len(x.Publishes))
	}
	maxNodes := len(table)
	for i, b := range x.Tail {
		if x.Patches[i].Publish != x.Publishes[i] {
			return nil, nil, nil, fmt.Errorf("shard: chain publish %d is described by the patch of %d", x.Publishes[i].Gen, x.Patches[i].Gen)
		}
		maxNodes += len(b.NewLocals)
	}
	f := NewFold(base.Graph, base.Cover, base.Gen, table, maxNodes)
	if _, _, err := f.FoldLog(x, true); err != nil {
		return nil, nil, nil, err
	}
	g, grown, last := f.Graph(), f.Table(), f.Last()
	n := g.N()
	if len(grown) < n {
		return nil, nil, nil, fmt.Errorf("shard: chain leaves %d table entries for %d nodes", len(grown), n)
	}
	locals := grown[:n:n]
	assemble := func(g *graph.Graph, cv *cover.Cover, _ *core.Result, c float64, buildTime time.Duration, pc *refresh.PatchContext) *refresh.Snapshot {
		return Assemble(base.Aux.(*Meta).Shard, pm, locals, g, cv, nil, c, buildTime, pc)
	}
	var snap *refresh.Snapshot
	if len(x.Publishes) == 1 {
		snap = last.Reassemble(base, g, assemble)
	} else {
		snap = assemble(g, f.Cover(), nil, last.C, 0, nil)
	}
	head := x.Publishes[len(x.Publishes)-1]
	snap.Gen, snap.Seq, snap.RebuildMode, snap.DirtyNodes = head.Gen, head.Seq, last.Mode, last.DirtyNodes

	links := make([]*Link, len(x.Publishes))
	for i, b := range x.Tail {
		links[i] = &Link{Batch: Batch{Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove},
			Patch: patchOf(&x.Patches[i]), Gen: x.Publishes[i].Gen, Seq: x.Publishes[i].Seq}
	}
	return snap, grown, links, nil
}
