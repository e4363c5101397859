// Package transport takes the sharded serving topology across process
// boundaries: it is the SnapshotProvider seam of internal/server —
// concretely, the shard.Backend seam of internal/shard — implemented
// over a compact, versioned HTTP/JSON wire protocol, so each shard's
// worker runs in its own process (or machine) while the router's HTTP
// handlers stay byte-for-byte the ones that serve the in-process
// deployment.
//
// Three pieces:
//
//   - ShardServer hosts one shard.Worker behind the protocol (the
//     `ocad -serve-shard i` role): generation/health probes, snapshot
//     resolution, mutation apply with the ghost-table updates riding
//     the fan-out, a flush barrier, and direct batch lookup. Snapshot
//     resolution answers a mirror at generation G with the chain of
//     publishes G+1 … head out of the worker's link ring — a WAL
//     excerpt, a few KB per publish — when the mirror accepts it, and
//     with the whole generation as a segment otherwise: the bytes the
//     data directory holds, never a wire-only encoding.
//   - Client is the remote shard.Backend (inside the `ocad
//     -shard-addrs` router role): it replicates the shard's
//     translation table, mirrors its published snapshots so reads stay
//     local and lock-free — catching up by folding chains with the
//     driver recovery folds a WAL tail with (shard.Fold.FoldLog,
//     validated publish by publish) and decoding whole segments only
//     when the server sends one, assembling either with the shard
//     layer's one assembler (shard.Assemble) — raises a
//     read-your-writes floor on flush once the mirror has caught up,
//     and maps transport failures to shard.ErrUnavailable so a down or
//     slow shard degrades into explicit partial results — never a
//     hang, never silent staleness.
//   - Dial handshakes K shard servers (positional addresses, identity
//     and dimension cross-checks), mirrors their first snapshots and
//     assembles a shard.Router over remote backends.
//
// The protocol is versioned as a whole (Version, carried by the
// Ocad-Shard-Protocol header under the /shard/v1/ path prefix); the
// normative description lives in docs/PROTOCOL.md, and
// TestProtocolDocSync keeps that document and the Routes manifest in
// lockstep. ReplicaServer re-serves a primary's mirror behind the same
// surface (the `ocad -follow` role), chains included.
package transport
