package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/shard"
)

// encodeSnapshot writes one generation as the snapshot media type: the
// JSON header (one value, newline-terminated by the encoder), then the
// binary CSR graph. table must be the full translation table captured
// at or after the snapshot load (append-only, so any later capture is a
// superset of the generation's prefix).
func encodeSnapshot(w io.Writer, shardID, k int, snap *refresh.Snapshot, table []int32) error {
	meta, _ := snap.Aux.(*shard.Meta)
	if meta == nil {
		return fmt.Errorf("transport: snapshot generation %d has no shard metadata", snap.Gen)
	}
	hdr := SnapshotHeader{
		Protocol: Version,
		Shard:    shardID,
		Shards:   k,
		Info:     snap.Info(),
		Table:    table,
		Cover:    make([][]int32, snap.Cover.Len()),
		Meta:     metaWire(meta),
	}
	for i, c := range snap.Cover.Communities {
		hdr.Cover[i] = c
	}
	if err := json.NewEncoder(w).Encode(hdr); err != nil {
		return err
	}
	return graph.WriteBinary(w, snap.Graph)
}

// metaWire is a generation's ownership aggregates as the wire carries
// them.
func metaWire(m *shard.Meta) MetaWire {
	return MetaWire{
		Epoch:              m.Epoch,
		OwnedNodes:         m.OwnedNodes,
		OwnedEdges:         m.OwnedEdges,
		CoveredOwned:       m.CoveredOwned,
		OverlapOwned:       m.OverlapOwned,
		OwnedMemberships:   m.OwnedMemberships,
		MaxMembershipOwned: m.MaxMembershipOwned,
	}
}

// meta is metaWire's inverse, with the shard identity and the
// generation's table prefix the wire leaves out.
func (m MetaWire) meta(shardID, k int, locals []int32) *shard.Meta {
	return &shard.Meta{
		Shard:              shardID,
		K:                  k,
		Epoch:              m.Epoch,
		Locals:             locals,
		OwnedNodes:         m.OwnedNodes,
		OwnedEdges:         m.OwnedEdges,
		CoveredOwned:       m.CoveredOwned,
		OverlapOwned:       m.OverlapOwned,
		OwnedMemberships:   m.OwnedMemberships,
		MaxMembershipOwned: m.MaxMembershipOwned,
	}
}

// mirrorSnapshot assembles a mirrored generation from its graph, cover,
// facts and ownership: the inverted index and overlap stats rebuilt
// deterministically from the cover (identical to the sender's, which
// derived them from the same cover), the scalar facts restored on top.
// The full stream and the chain both end here, so a mirror is the same
// whichever way it was fed.
func mirrorSnapshot(g *graph.Graph, cv *cover.Cover, info refresh.SnapshotInfo, meta *shard.Meta) *refresh.Snapshot {
	snap := refresh.NewSnapshot(g, cv, nil, info.C, 0)
	snap.Restore(info)
	snap.Aux = meta
	return snap
}

// decodeSnapshot parses a snapshot transfer and reassembles the
// generation (see mirrorSnapshot). It validates the header against the
// expected shard identity and that every cover member is a valid local
// node.
func decodeSnapshot(r io.Reader, wantShard, wantK int) (*refresh.Snapshot, []int32, error) {
	dec := json.NewDecoder(r)
	var hdr SnapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, nil, fmt.Errorf("transport: decoding snapshot header: %w", err)
	}
	if err := checkIdentity("snapshot", hdr.Protocol, hdr.Shard, hdr.Shards, wantShard, wantK); err != nil {
		return nil, nil, err
	}
	// The JSON decoder buffers past the value it parsed; the binary
	// graph starts in that buffer (after the encoder's newline) and
	// continues on the stream.
	rest := bufio.NewReader(io.MultiReader(dec.Buffered(), r))
	if b, err := rest.ReadByte(); err == nil && b != '\n' {
		_ = rest.UnreadByte()
	}
	g, err := graph.ReadBinary(rest)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: decoding snapshot graph: %w", err)
	}
	if g.N() != hdr.Info.Nodes || g.M() != hdr.Info.Edges {
		return nil, nil, fmt.Errorf("transport: snapshot graph is %d nodes/%d edges, header says %d/%d",
			g.N(), g.M(), hdr.Info.Nodes, hdr.Info.Edges)
	}
	if len(hdr.Table) < g.N() {
		return nil, nil, fmt.Errorf("transport: snapshot table has %d entries for %d nodes", len(hdr.Table), g.N())
	}
	comms := make([]cover.Community, len(hdr.Cover))
	for i, ms := range hdr.Cover {
		for _, v := range ms {
			if v < 0 || int(v) >= g.N() {
				return nil, nil, fmt.Errorf("transport: snapshot community %d member %d outside graph range [0, %d)", i, v, g.N())
			}
		}
		comms[i] = cover.Community(ms)
	}
	meta := hdr.Meta.meta(hdr.Shard, hdr.Shards, hdr.Table[:g.N():g.N()])
	return mirrorSnapshot(g, cover.NewCover(comms), hdr.Info, meta), hdr.Table, nil
}

// checkIdentity validates a transfer's protocol version and shard
// identity against what the receiver mirrors.
func checkIdentity(what string, protocol, shardID, k, wantShard, wantK int) error {
	if protocol != Version {
		return fmt.Errorf("transport: %s protocol %d, want %d", what, protocol, Version)
	}
	if shardID != wantShard || k != wantK {
		return fmt.Errorf("transport: %s identifies as shard %d/%d, want %d/%d", what, shardID, k, wantShard, wantK)
	}
	return nil
}

// encodeChain writes links (the publishes after generation since) as
// the chain media type.
func encodeChain(w io.Writer, shardID, k int, since uint64, links []*shard.Link) error {
	ch := SnapshotChain{Protocol: Version, Shard: shardID, Shards: k, Since: since, Links: make([]ChainLink, len(links))}
	for i, l := range links {
		cl := ChainLink{
			Batch: l.Batch,
			Patch: PatchWire{Carried: l.Patch.Carried, Removed: l.Patch.Removed, Fresh: make([][]int32, len(l.Patch.Fresh))},
			Info:  l.Info,
		}
		for j, c := range l.Patch.Fresh {
			cl.Patch.Fresh[j] = c
		}
		if l.Meta != nil {
			cl.Meta = metaWire(l.Meta)
		}
		ch.Links[i] = cl
	}
	return json.NewEncoder(w).Encode(ch)
}

// decodeChain parses a chain transfer and checks it is addressed to this
// mirror: the shard identity, and a non-empty chain starting at since.
// What the links name is validated as they are folded (foldChain).
func decodeChain(r io.Reader, wantShard, wantK int, since uint64) (*SnapshotChain, error) {
	var ch SnapshotChain
	if err := json.NewDecoder(r).Decode(&ch); err != nil {
		return nil, fmt.Errorf("transport: decoding snapshot chain: %w", err)
	}
	if err := checkIdentity("snapshot chain", ch.Protocol, ch.Shard, ch.Shards, wantShard, wantK); err != nil {
		return nil, err
	}
	if ch.Since != since || len(ch.Links) == 0 {
		return nil, fmt.Errorf("transport: snapshot chain of %d links from generation %d, want links from %d", len(ch.Links), ch.Since, since)
	}
	return &ch, nil
}

// link is the in-memory form of a wire link (Meta without Locals).
func (cl *ChainLink) link() *shard.Link {
	p := &refresh.Patch{
		Mode: cl.Info.RebuildMode, Carried: cl.Patch.Carried, C: cl.Info.C, DirtyNodes: cl.Info.DirtyNodes,
		Removed: cl.Patch.Removed, Fresh: make([]cover.Community, len(cl.Patch.Fresh)),
		PrevNodes: cl.Base, Add: cl.Add, Remove: cl.Remove,
	}
	for i, c := range cl.Patch.Fresh {
		p.Fresh[i] = c
	}
	return &shard.Link{Batch: cl.Batch, Patch: p, Info: cl.Info, Meta: cl.Meta.meta(0, 0, nil)}
}

// foldChain replays a decoded chain onto base, the mirror's copy of
// generation ch.Since, with table the mirror's translation table. Growth
// is capped by the table entries the mirror has plus those the chain
// ships — every node needs one — so no declared count can make the
// mirror allocate what the bytes do not back. Every link is validated
// before it is applied (shard.Fold) — it came from a peer — and the
// result is checked against the head link's facts before it is
// assembled. It returns the head generation, the grown table and the
// links in memory form.
func foldChain(base *refresh.Snapshot, table []int32, ch *SnapshotChain) (*refresh.Snapshot, []int32, []*shard.Link, error) {
	maxNodes := len(table)
	for i := range ch.Links {
		maxNodes += len(ch.Links[i].NewLocals)
	}
	f := shard.NewFold(base.Graph, base.Cover, base.Gen, table, maxNodes)
	links := make([]*shard.Link, len(ch.Links))
	for i := range ch.Links {
		l := ch.Links[i].link()
		if err := f.Step(l.Info.Gen, []shard.Batch{l.Batch}, l.Info.Nodes, l.Patch); err != nil {
			return nil, nil, nil, fmt.Errorf("transport: snapshot chain: %w", err)
		}
		links[i] = l
	}
	head := links[len(links)-1]
	g, cv, grown := f.Graph(), f.Cover(), f.Table()
	if g.N() != head.Info.Nodes || g.M() != head.Info.Edges || cv.Len() != head.Info.Communities {
		return nil, nil, nil, fmt.Errorf("transport: snapshot chain folds to %d nodes/%d edges/%d communities, its head says %d/%d/%d",
			g.N(), g.M(), cv.Len(), head.Info.Nodes, head.Info.Edges, head.Info.Communities)
	}
	if len(grown) < g.N() {
		return nil, nil, nil, fmt.Errorf("transport: snapshot chain leaves %d table entries for %d nodes", len(grown), g.N())
	}
	meta := ch.Links[len(ch.Links)-1].Meta.meta(ch.Shard, ch.Shards, grown[:g.N():g.N()])
	head.Meta = meta
	return mirrorSnapshot(g, cv, head.Info, meta), grown, links, nil
}
