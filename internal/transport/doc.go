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
//     publishes G+1 … head out of the worker's link ring (JSON, a few
//     KB per publish) when the mirror accepts it, and with the whole
//     generation (JSON header + binary CSR graph) otherwise.
//   - Client is the remote shard.Backend (inside the `ocad
//     -shard-addrs` router role): it replicates the shard's
//     translation table, mirrors its published snapshots so reads stay
//     local and lock-free — catching up by folding chains
//     (shard.Fold, validated link by link) and decoding whole
//     snapshots only when the server sends one — raises a
//     read-your-writes floor on flush once the mirror has caught up,
//     and maps transport failures to shard.ErrUnavailable so a down or
//     slow shard degrades into explicit partial results — never a
//     hang, never silent staleness.
//   - Dial handshakes K shard servers (positional addresses, identity
//     and dimension cross-checks), mirrors their first snapshots and
//     assembles a shard.Router over remote backends.
//
// The protocol is versioned as a whole (Version, the
// Ocad-Shard-Protocol header, the /shard/v1/ path prefix); the
// normative description lives in docs/PROTOCOL.md, and
// TestProtocolDocSync keeps that document and the Routes manifest in
// lockstep. ReplicaServer re-serves a primary's mirror behind the same
// surface (the `ocad -follow` role), chains included.
package transport
