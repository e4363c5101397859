// Package shard partitions a graph — and the overlapping community
// cover served over it — across K node-disjoint shards, and routes
// queries and mutations to them. It is the serving-scale layer the
// ROADMAP's north star calls for.
//
// # Partitioning
//
// Node v belongs to shard v mod K (Partition). Each shard's graph
// (Split, Piece) contains its owned nodes plus "ghost" copies of every
// boundary neighbor, with the full induced halo (owned–ghost and
// ghost–ghost edges), so the per-shard OCA run still sees complete
// boundary neighborhoods — the paper's fitness L(s, m, c) depends only
// on a set's size and internal edges, so a community whose induced
// subgraph is present in the halo scores identically to the unsharded
// run. Communities containing no owned node are dropped before
// publication (ghost filtering); the surviving per-shard covers,
// translated back to global ids, form the served sharded cover
// (MergeCovers for the offline merged view).
//
// # The pieces and their seams
//
//   - Worker is one shard's authoritative engine: the shard graph kept
//     live by its own refresh.Worker, the append-only global↔local
//     translation table, ghost filtering and ownership metadata (Meta)
//     on every published generation — all through one
//     refresh.Config.Assemble hook (Worker.assemble, patch.go) deciding
//     ownership with one predicate over the current PartitionMap:
//     from scratch on full rebuilds and epoch changes, patched in
//     O(|dirty region|) on fastpath/incremental rebuilds.
//   - Backend is the seam the Router fans out over: Worker implements
//     it in-process, and internal/transport's Client implements it
//     over the wire (each shard in its own process), shipping
//     translation-table growth with each mutation batch (Batch,
//     ApplyBatch) and mirroring snapshots for reads.
//   - Router owns K backends: all-or-nothing mutation admission,
//     global→local translation with ghost materialization, per-request
//     Views, and the (shard, generation) vector (GenVector) every
//     response quotes — including each degraded shard's explicit error
//     (View.Err, ErrUnavailable) so a down or slow shard yields
//     partial results instead of hangs or silent staleness.
//
// internal/server consumes the Router through its SnapshotProvider
// seam; the same handlers serve one in-process worker, K in-process
// shards, and K shard processes.
package shard
