package transport

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/refresh"
	"repro/internal/segment"
	"repro/internal/shard"
	"repro/internal/wal"
)

// The snapshot transfer reuses the durable encodings byte for byte: a
// full transfer is the segment a data directory would seal of the
// generation (internal/segment), a chain the WAL records its publishes
// were logged as (shard.EncodeChain). A mirror decodes both with the
// decoders recovery trusts and assembles what they carry with the shard
// layer's one assembler (shard.Assemble), which derives the ownership
// Meta neither encoding carries.

// fullBody encodes snap as the full transfer: a segment whose table is
// the full translation table captured at or after the snapshot load
// (append-only, so any later capture is a superset of the generation's
// prefix — on the wire, unlike on disk, it may run past the graph), and
// whose partition map is the one snap's ownership was evaluated under.
func fullBody(shardID, k int, snap *refresh.Snapshot, table []int32) ([]byte, error) {
	d := segment.Data{Meta: segment.Meta{Info: snap.Info(), Shard: shardID, Shards: k}, Graph: snap.Graph, Cover: snap.Cover, Table: table}
	if pm := snap.Aux.(*shard.Meta).Map; pm.Epoch != 0 {
		d.Epoch, d.PMap = pm.Epoch, pm.Encode()
	}
	return d.Encode()
}

// maxPrealloc caps how much of a transfer's declared length readBody
// allocates before the bytes arrive.
const maxPrealloc = 16 << 20

// readBody reads a transfer whole, sized up front by its declared length
// (-1: unknown) up to maxPrealloc, so a peer's header alone cannot make
// the mirror allocate more; past that it grows as bytes arrive.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(declared, 0), maxPrealloc)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// readFull decodes a full transfer and assembles the generation from
// scratch under the partition map it names. Besides what segment.Decode
// checks of peer bytes — checksums, the whole CSR, graph dimensions
// against META, members in range — it validates the protocol and shard
// identity against what the receiver mirrors and that the table covers
// the graph. The graph aliases data.
func readFull(data []byte, h http.Header, wantShard, wantK int) (*refresh.Snapshot, []int32, error) {
	if err := checkProtocol("snapshot", h); err != nil {
		return nil, nil, err
	}
	d, err := segment.Decode(data, false)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: snapshot: %w", err)
	}
	if d.Shard != wantShard || d.Shards != wantK {
		return nil, nil, fmt.Errorf("transport: snapshot identifies as shard %d/%d, want %d/%d", d.Shard, d.Shards, wantShard, wantK)
	}
	n := d.Graph.N()
	if len(d.Table) < n {
		return nil, nil, fmt.Errorf("transport: snapshot table has %d entries for %d nodes", len(d.Table), n)
	}
	pm, err := d.PartitionMap()
	if pm == nil && err == nil {
		pm, err = shard.NewPartitionMap(d.Shards)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("transport: snapshot: %w", err)
	}
	if pm.K != wantK {
		return nil, nil, fmt.Errorf("transport: snapshot partition map is %d-way, want %d", pm.K, wantK)
	}
	snap := shard.Assemble(d.Shard, pm, d.Table[:n:n], d.Graph, d.Cover, nil, d.Info.C, 0, nil)
	snap.Restore(d.Info)
	return snap, d.Table, nil
}

// chainBody encodes links — the publishes after generation since, up to
// head — as the chain transfer, and the HeaderPartitionMap value naming
// the map head's ownership was evaluated under. It fails when the chain
// cannot be shipped whole.
func chainBody(since uint64, head *refresh.Snapshot, links []*shard.Link) ([]byte, string, error) {
	body, err := shard.EncodeChain(since, links)
	return body, base64.StdEncoding.EncodeToString(head.Aux.(*shard.Meta).Map.Encode()), err
}

// readChain decodes a chain transfer onto base, the mirror's copy of
// generation since, with table the mirror's translation table. The
// body must be a whole WAL excerpt based at since, and the protocol and
// partition width the mirror's; shard.FoldChain validates every publish
// before it applies it. The shard identity is the instance's: the
// caller accepts a chain only from the instance whose full transfer,
// identity checked, the mirror holds.
func readChain(data []byte, h http.Header, base *refresh.Snapshot, table []int32, wantK int, since uint64) (*refresh.Snapshot, []int32, []*shard.Link, error) {
	if err := checkProtocol("snapshot chain", h); err != nil {
		return nil, nil, nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(h.Get(HeaderPartitionMap))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("transport: snapshot chain partition map: %w", err)
	}
	pm, err := shard.DecodePartitionMap(raw)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("transport: snapshot chain: %w", err)
	}
	if pm.K != wantK {
		return nil, nil, nil, fmt.Errorf("transport: snapshot chain partition map is %d-way, want %d", pm.K, wantK)
	}
	hdr, recs, _, err := wal.ReadLog(bytes.NewReader(data))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("transport: decoding snapshot chain: %w", err)
	}
	if hdr.BaseGen != since {
		return nil, nil, nil, fmt.Errorf("transport: snapshot chain from generation %d, want %d", hdr.BaseGen, since)
	}
	x, err := wal.Scan(recs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("transport: decoding snapshot chain: %w", err)
	}
	snap, grown, links, err := shard.FoldChain(base, table, pm, &x)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("transport: snapshot chain: %w", err)
	}
	return snap, grown, links, nil
}

// checkProtocol validates a transfer's protocol version, which its
// response header carries.
func checkProtocol(what string, h http.Header) error {
	if p := h.Get(HeaderProtocol); p != strconv.Itoa(Version) {
		return fmt.Errorf("transport: %s protocol %q, want %d", what, p, Version)
	}
	return nil
}
