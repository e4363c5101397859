// Package refresh keeps a served community cover live under graph
// mutation. A Worker owns the current (graph, cover, index, stats)
// tuple as a generation-numbered immutable Snapshot behind an atomic
// pointer: readers load the pointer once per request and never block,
// while a single background goroutine applies queued edge mutations to
// the CSR graph (graph.Delta, copy-on-write), recomputes what the
// batch invalidated, and publishes the result as the next generation.
//
// # Rebuild modes
//
// Config.IncrementalThreshold routes each taken batch (planRebuild):
//
//   - ModeFull — whole-graph OCA, warm-started from communities the
//     batch did not touch, index and stats rebuilt;
//   - ModeIncremental — OCA re-seeded only over the dirty region
//     (mutated endpoints plus members of touched communities, via
//     core.Options.Restrict), fresh discoveries folded into the
//     carried cover by postprocess.MergeInto, index.Patch and
//     cover.PatchStats instead of rebuilds — cost proportional to the
//     batch, not the graph;
//   - ModeFastpath — the batch touched no community and added no
//     structure: the new graph publishes with the cover carried
//     pointer-identical and no OCA at all.
//
// A rebuild failure publishes the new graph with the previous cover
// carried over (mutations never shrink the node set, so the old cover
// remains valid) rather than failing reads.
//
// # Seams for custom snapshot layers
//
// Every publish ends in one call to Config.Assemble, by default the
// built-in Assemble: handed nil it builds index and stats from scratch
// (full rebuilds, carry-overs; NewSnapshot is this form), handed a
// PatchContext describing exactly what the batch changed it patches
// them from the previous generation's. A layer above sets the hook to
// wrap the built-in one — the shard layer filters ghost-only
// communities, calls Assemble, and attaches ownership metadata via
// Snapshot.Aux — so that layer's derived state is patched in
// O(|dirty region|) too. SnapshotInfo is the wire-serializable summary
// of a generation (with Snapshot.Restore as the receiving half) used by
// the multi-process shard transport.
//
// By default the node set is fixed for the lifetime of a Worker;
// Config.MaxNodes lets added edges name new node ids, growing the
// graph across rebuilds (the sharded router relies on this to
// materialize ghost copies of boundary nodes on demand). Mutation
// batches are validated and accepted atomically (ValidateBatch, shared
// with the shard router so both layers accept exactly the same
// batches), rebuilds are debounced so bursts coalesce into one OCA
// run, and Flush gives writers a publication barrier.
package refresh
