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
//     carried cover by postprocess.MergeInto — OCA cost proportional to
//     the batch, not the graph; index and stats are built over the
//     result, one O(n + memberships) pass. The scoped run seeds each
//     dirty node the carried communities leave uncovered at most once,
//     and stops when none is left untried (or earlier, on coverage or
//     patience), so its seed count is bounded by the region it was
//     handed;
//   - ModeFastpath — the batch touched no community and added no
//     structure: the new graph publishes with the cover carried
//     pointer-identical and no OCA at all.
//
// A rebuild failure publishes the new graph with the previous cover
// carried over (mutations never shrink the node set, so the old cover
// remains valid) rather than failing reads.
//
// # What a publish changed
//
// Every published Snapshot carries a Patch: the previous generation's
// community ids it dropped and the communities it appended, plus the
// generation's mode, c and dirty count — what the publish changed, as
// data, with no pointer to its predecessor. It is read off the
// assembled snapshot (after any custom layer's filtering, before the
// canonical sort), and (*Patch).ApplyCover replays it on a copy of the
// previous cover: patch applied to generation N's cover is generation
// N+1's, community for community, id for id. The persistence layer
// logs it beside each publish marker and recovers by folding patches,
// because a cover cannot be re-derived bit for bit — core.Run's result
// depends on its seed and its worker count. PatchContext (below) is
// the in-process twin, handed to the assembler while the predecessor
// is still at hand.
//
// In memory a Patch also holds the publish's edge operations, resolved
// one per edge the way graph.Delta.Net resolves them, and the
// predecessor's node count. With those it describes the whole publish,
// not only its cover: the shard layer ships it to snapshot mirrors as a
// link and replays it there with the same fold recovery uses. The WAL
// does not store them — it already holds the edge batches — so its
// patch record is unchanged.
//
// # Seams for custom snapshot layers
//
// Every publish ends in one call to Config.Assemble, by default the
// built-in Assemble, which builds index and stats from scratch on every
// mode (NewSnapshot is its nil-PatchContext form) and only shares the
// previous generation's when handed that generation's own cover at the
// same node count (the fastpath). A fastpath or incremental publish
// also hands the hook a PatchContext describing exactly what the batch
// changed. A layer above sets the hook to wrap the built-in one — the
// shard layer filters ghost-only communities, calls Assemble, and
// attaches ownership metadata via Snapshot.Aux — and carries what it
// can derive from the batch alone forward from the previous
// generation's. SnapshotInfo is the wire-serializable summary
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
