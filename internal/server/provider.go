package server

// SnapshotProvider is the seam between the HTTP handlers and where the
// served state lives. Every handler resolves its view(s) through this
// interface and is written once over them; whether a response takes
// the unsharded or the sharded shape is read off the views themselves
// (shard.View.Sharded: does this view translate ids). Two
// implementations exist:
//
//   - localProvider (local.go): one graph, one refresh.Worker, identity
//     id translation — including lazy cover builds, preloaded covers,
//     recovered snapshots and K=1 persistence;
//   - shard.Router: K partitioned backends, one view per shard per
//     request, global↔local id translation, and a (shard, generation)
//     vector quoted in responses. Its backends are in-process workers
//     (Config.Shards > 1) or transport clients mirroring remote shard
//     servers (NewWithProvider, the multi-process router role) — either
//     way reads are answered from snapshots held in this process.

import (
	"context"

	"repro/internal/shard"
)

// SnapshotProvider abstracts the source of served snapshots. All
// methods are safe for concurrent use.
type SnapshotProvider interface {
	// NumShards returns the partition width (1 on the single path).
	NumShards() int
	// Ready reports whether a first generation exists without forcing a
	// lazy build (observability endpoints must never block on OCA).
	Ready() bool
	// Views returns one immutable view per shard, building the first
	// generation if necessary. Handlers must answer a whole request
	// from one call's result.
	Views() ([]shard.View, error)
	// ViewFor resolves a global node id to its owning shard's view and
	// local id. ok is false for ids not materialized in the published
	// generation; err reports a failed (lazy) cover build.
	ViewFor(global int32) (view shard.View, local int32, ok bool, err error)
	// ShardOf returns the shard owning a non-negative global node id —
	// the index into Views() a batch handler fans that id out to. The
	// topology (modulo-K today, rebalanced ranges tomorrow) stays the
	// provider's business.
	ShardOf(global int32) int
	// NodeBound is the exclusive upper bound on currently valid global
	// node ids, for error messages. It never forces a lazy build.
	NodeBound() int
	// Enqueue validates and queues a batch of global edge mutations,
	// returning each shard's generation at enqueue time, the number of
	// accepted operations, and the shards that received work (what a
	// waiting client passes to Flush). ctx bounds the remote fan-out on
	// multi-process providers; in-process queues never block on it.
	Enqueue(ctx context.Context, add, remove [][2]int32) (vec shard.GenVector, queued int, touched []int, err error)
	// Flush blocks until the listed shards (all when nil) have
	// reflected their previously enqueued mutations, returning the full
	// generation vector — waiting on only the touched shards keeps one
	// client's wait=true independent of another shard's deep backlog.
	Flush(ctx context.Context, shards []int) (shard.GenVector, error)
	// Statuses returns every shard's worker status without blocking.
	// Nil until Ready.
	Statuses() []shard.WorkerStatus
	// Close stops background rebuild workers; reads keep serving.
	Close()
}
