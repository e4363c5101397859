package persist

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/refresh"
	"repro/internal/shard"
	"repro/internal/wal"
)

// State is what recovery found on disk: the newest valid segment (nil
// on a cold start) and the WAL tail not yet included in it, ordered by
// sequence number, plus the generation/sequence high-water mark from
// the publish markers so replay can restore exact pre-crash generation
// numbering.
type State struct {
	// Segment is the newest valid segment (nil: cold start).
	Segment *Segment
	// Excerpt is the WAL beyond the segment, each kind of record in
	// order: Tail the batches with Seq beyond the segment's — replaying
	// them through the incremental engine reproduces the pre-crash state
	// in O(batch) per record; Publishes the publish markers beyond it,
	// which record how the live worker grouped Tail into rebuilds;
	// Patches the cover patches beyond it, what each described publish
	// turned the cover into. Replay folds the longest prefix of
	// Publishes that each have one and re-derives only what follows (see
	// foldTail).
	wal.Excerpt
	// LastGen/LastSeq are the newest published generation and its op
	// count according to the publish markers — at least the segment's
	// own. The recovered snapshot's generation is forced to LastGen so
	// clients see no generation regression across the restart.
	LastGen uint64
	LastSeq uint64
	// Stats summarizes the scan for /healthz.
	Stats RecoveryStats

	// store is the Store that loaded this state (nil for a hand-built
	// one); replay reports back to it what it folded and derived.
	store *Store
}

// PartitionMap decodes the partition map the recovered segment was
// sealed under. It returns (nil, nil) on a cold start or for segments
// sealed at the epoch-0 base map (no map bytes on disk). A segment
// whose recorded epoch and map bytes disagree is corrupt and errors
// loudly rather than letting the shard rejoin under the wrong
// ownership.
func (st *State) PartitionMap() (*shard.PartitionMap, error) {
	if st.Segment == nil {
		return nil, nil
	}
	pm, err := st.Segment.PartitionMap()
	if err != nil {
		return nil, fmt.Errorf("persist: %s %w — segment corrupt; remove it to fall back to an older one", st.Segment.Path, err)
	}
	return pm, nil
}

// Load scans the data directory for the newest valid segment and the
// WAL tail beyond it. Corrupt or torn segments are skipped in favor of
// older ones; a torn WAL tail is cut at its last intact record. An
// empty directory is a clean cold start, not an error. Load does not
// start the live WAL — call Boot once the serving snapshot is known.
func (s *Store) Load() (*State, error) {
	st := &State{store: s}

	// Newest valid segment wins; anything that fails validation is
	// passed over (crash mid-rename leaves only a tmp file, which the
	// directory scan never lists — but a corrupted file body lands
	// here).
	segs := s.listSegments()
	for i := len(segs) - 1; i >= 0; i-- {
		seg, err := LoadSegment(filepath.Join(s.opts.Dir, SegmentName(segs[i])))
		if err == nil {
			if err = s.checkIdentity(seg); err != nil {
				seg.Close()
				return nil, err
			}
			st.Segment = seg
			break
		}
		st.Stats.SkippedSegments++
	}

	var baseSeq uint64
	if st.Segment != nil {
		baseSeq = st.Segment.Info.Seq
		st.LastGen = st.Segment.Info.Gen
		st.LastSeq = baseSeq
		st.Stats.Source = "segment"
		st.Stats.SegmentGen = st.Segment.Info.Gen
	} else if st.Stats.SkippedSegments > 0 {
		return nil, fmt.Errorf("persist: %d segment file(s) present but none valid in %s", st.Stats.SkippedSegments, s.opts.Dir)
	} else {
		st.Stats.Source = "cold"
	}

	// Read every WAL file in base-generation order and keep the records
	// beyond the segment's sequence. Normally only one WAL matters, but
	// a crash between sealing a segment and pruning can leave several;
	// filtering by sequence number makes the scan insensitive to that.
	for _, gen := range s.listWALs() {
		_, recs, _, err := wal.ReadLogFile(filepath.Join(s.opts.Dir, WALName(gen)))
		if err != nil {
			if !errors.Is(err, wal.ErrTorn) {
				return nil, fmt.Errorf("persist: reading WAL %d: %w", gen, err)
			}
			st.Stats.TornTail = true
		}
		x, err := wal.Scan(recs)
		if err != nil {
			return nil, fmt.Errorf("persist: WAL %d: %w", gen, err)
		}
		for _, b := range x.Tail {
			if b.Seq > baseSeq {
				st.Tail = append(st.Tail, b)
				st.Stats.ReplayedBatches++
				st.Stats.ReplayedOps += len(b.Add) + len(b.Remove)
			}
		}
		for _, p := range x.Publishes {
			if p.Seq > baseSeq {
				st.Publishes = append(st.Publishes, p)
			}
			if p.Gen > st.LastGen {
				st.LastGen, st.LastSeq = p.Gen, p.Seq
			}
		}
		for _, cp := range x.Patches {
			if cp.Seq > baseSeq {
				st.Patches = append(st.Patches, cp)
			}
		}
	}
	if st.Segment == nil && len(st.Tail) > 0 {
		// A WAL without any segment means generation 1 was never
		// persisted; its batches cannot replay onto anything. Treat as
		// cold — the caller rebuilds from its input graph.
		st.Tail = nil
		st.Publishes = nil
		st.Patches = nil
		st.Stats.ReplayedBatches, st.Stats.ReplayedOps = 0, 0
	}
	if len(st.Tail) > 0 {
		st.Stats.Source = "segment+wal"
	}

	s.mu.Lock()
	s.recovered = st.Stats
	// The publishes of the tail count towards the next segment: if this
	// boot seals, the seal resets the count; if it does not (the tail is
	// fully described), SegmentEvery keeps bounding the tail a restart
	// must read, across restarts.
	s.pubsSinceSeg = uint64(len(st.Publishes))
	if st.Segment != nil {
		// Carry the recovered partition facts forward: seals after a
		// restart keep stamping the epoch the shard rejoined at, even
		// if no map change happens in this process's lifetime.
		s.epoch, s.pmap = st.Segment.Epoch, st.Segment.PMap
		s.sealedEpoch = st.Segment.Epoch
		s.sealedNodes = [2]int{st.Segment.GlobalNodes, st.Segment.MaxNodes}
	}
	s.mu.Unlock()
	return st, nil
}

// replayDebounce is the replay engines' mutation-coalescing window: one
// that never elapses. The live worker coalesced every batch up to a
// marker into one rebuild; replay queues those batches one Enqueue at a
// time, and a worker free to start rebuilding in between would split
// the group into several publishes — another cover and a generation
// count past the logged one, depending on who wins the race. Under a
// window this long only replayGroups' flush ends the wait, so a group
// is rebuilt whole.
const replayDebounce = time.Hour

// replayGroups feeds WAL batches to a worker, flushing at the publish
// boundaries the live worker used: the markers record which batches each
// published generation coalesced, and the incremental engine's output
// depends on how mutations were batched into rebuilds, not just on
// their union. Batches past the last marker (accepted but never
// published before the crash) get one final flush of their own.
func replayGroups(tail []wal.EdgeBatch, pubs []wal.Publish, apply func(wal.EdgeBatch) error, flush func() error) error {
	i, pending := 0, 0
	step := func(upTo uint64) error {
		for i < len(tail) && tail[i].Seq <= upTo {
			if err := apply(tail[i]); err != nil {
				return fmt.Errorf("persist: replaying batch seq %d: %w", tail[i].Seq, err)
			}
			i++
			pending++
		}
		if pending == 0 {
			return nil
		}
		pending = 0
		if err := flush(); err != nil {
			return fmt.Errorf("persist: flushing replay: %w", err)
		}
		return nil
	}
	for _, p := range pubs {
		if err := step(p.Seq); err != nil {
			return err
		}
	}
	return step(^uint64(0))
}

// foldTail reads the described prefix of the tail back from the log
// instead of re-deriving it: for the longest run of publish markers
// that each have a fitting cover patch, shard.Fold.FoldLog over the
// segment — the patches applied to its cover in publish order, one
// graph.Delta over all their edge batches, table growth by
// shard.ReconcileTable.
// The result is the last folded generation as a bare snapshot — no
// index, no stats, no Aux: the serving layer assembles once — with its
// translation table and the number of tail batches and markers
// consumed. Nothing folded returns a nil snapshot.
//
// The fold stops at the first publish the log does not describe: a
// marker without a patch (a WAL written before patches existed, a patch
// over wal.MaxRecordBytes), a patch that does not fit the cover it
// names, a batch the engine would reject. Everything from there on is
// the engine's, starting from the folded snapshot.
func foldTail(st *State, maxNodes int) (snap *refresh.Snapshot, table []int32, batches, pubs int) {
	seg := st.Segment
	f := shard.NewFold(seg.Graph, seg.Cover, seg.Info.Gen, seg.Table, maxNodes)
	batches, pubs, _ = f.FoldLog(&st.Excerpt, false)
	if pubs == 0 {
		return nil, nil, 0, 0
	}
	last := f.Last()
	snap = &refresh.Snapshot{
		Gen: f.Gen(), Seq: st.Publishes[pubs-1].Seq,
		Graph: f.Graph(), Cover: f.Cover(), C: last.C,
		BuiltAt: time.Now(), RebuildMode: last.Mode, DirtyNodes: last.DirtyNodes,
	}
	if !last.Carried {
		// Published covers went through the merge (see Segment.Snapshot);
		// a carry-over did not, and the live worker's next rebuild ran
		// full because of it.
		snap.Result = &core.Result{Cover: snap.Cover, C: last.C}
	}
	return snap, f.Table(), batches, pubs
}

// recoverTail is the recovery both roles share: fold what the log
// describes, then hand whatever is left to the role's engine, starting
// from the folded snapshot (the segment's own when nothing folded).
// Either start is bare — no index, no stats — and so is the result when
// the engine had nothing to do: the role assembles it once. It
// forces the generation to the last published one, so the restart is
// invisible to generation-tracking clients, and reports what it did to
// the store that loaded the state.
func recoverTail(st *State, maxNodes int, engine func(start *refresh.Snapshot, table []int32, tail []wal.EdgeBatch, pubs []wal.Publish) (*refresh.Snapshot, []int32, error)) (*refresh.Snapshot, []int32, error) {
	snap, table, nb, np := foldTail(st, maxNodes)
	if snap == nil {
		snap, table = st.Segment.bare(), st.Segment.Table
	}
	tail, pubs := st.Tail[nb:], st.Publishes[np:]
	derived := len(pubs)
	if len(tail) > 0 {
		if len(pubs) == 0 || tail[len(tail)-1].Seq > pubs[len(pubs)-1].Seq {
			derived++ // accepted but never published: one flush of their own
		}
		var err error
		if snap, table, err = engine(snap, table, tail, pubs); err != nil {
			return nil, nil, err
		}
	}
	if st.LastGen > snap.Gen || snap.Patch != nil {
		// A restored generation: numbered as the log numbers it, and with
		// no patch of its own — the throwaway engine's is relative to a
		// generation this process never serves.
		restored := *snap
		restored.Gen = max(snap.Gen, st.LastGen)
		restored.Patch = nil
		snap = &restored
	}
	st.Stats.PatchedPublishes, st.Stats.DerivedPublishes = np, derived
	if s := st.store; s != nil {
		s.mu.Lock()
		s.recovered = st.Stats
		if np > 0 && derived == 0 {
			s.foldedGen = snap.Gen
		}
		s.mu.Unlock()
	}
	return snap, table, nil
}

// replaySingle reproduces the pre-shutdown snapshot for the
// single-graph role: the segment's snapshot plus the WAL tail — folded
// from its cover patches where the log describes it, applied through
// the incremental rebuild engine where it does not, under rcfg (the
// serving rebuild options; Debounce and the persistence hooks are
// overridden: replay never logs to the WAL it is reading) — with the
// generation forced to the last published one. A nil-segment state
// returns nil (cold start).
func replaySingle(st *State, rcfg refresh.Config) (*refresh.Snapshot, error) {
	if st.Segment == nil {
		return nil, nil
	}
	rcfg.Debounce = replayDebounce
	rcfg.LogBatch = nil
	rcfg.OnSwap = nil
	rcfg.MaxNodes = max(rcfg.MaxNodes, st.Segment.MaxNodes)
	snap, _, err := recoverTail(st, rcfg.MaxNodes, func(start *refresh.Snapshot, _ []int32, tail []wal.EdgeBatch, pubs []wal.Publish) (*refresh.Snapshot, []int32, error) {
		if rcfg.OCA.C == 0 {
			// Pin the recovered inner-product parameter: re-deriving the
			// spectrum per replayed batch would turn an O(batch) replay
			// into repeated whole-graph eigenvalue runs.
			rcfg.OCA.C = start.C
		}
		w := refresh.New(assembled(start), rcfg)
		w.Start()
		defer w.Close()
		err := replayGroups(tail, pubs, func(b wal.EdgeBatch) error {
			_, _, err := w.Enqueue(b.Add, b.Remove)
			return err
		}, func() error {
			_, err := w.Flush(context.Background())
			return err
		})
		return w.Snapshot(), nil, err
	})
	if err != nil {
		return nil, err
	}
	return assembled(snap), nil
}

// assembled returns snap with its index and stats built: snap itself
// unless it is a bare folded snapshot.
func assembled(snap *refresh.Snapshot) *refresh.Snapshot {
	if snap.Index != nil {
		return snap
	}
	full := refresh.NewSnapshot(snap.Graph, snap.Cover, snap.Result, snap.C, 0)
	full.Restore(snap.Info())
	return full
}

// ReplayShard reproduces a shard's pre-shutdown state: the segment's
// snapshot and translation table plus the WAL tail — folded from its
// cover patches where the log describes it; where it does not, replayed
// through a throwaway shard worker built from the folded state (no OCA
// run for that), whose ApplyBatch reconciles the logged
// translation-table growth exactly like the original fan-out did. The
// snapshot's generation is forced to the last published one. It
// returns the final snapshot and the full translation table, from
// which the caller builds the serving worker
// (shard.NewWorkerFromSnapshot); a fully described or empty tail starts
// no worker here, and the snapshot comes back bare (no index, no Aux),
// for that worker to assemble once. A nil-segment state returns nils
// (cold start).
func ReplayShard(st *State, shardID, k int, cfg shard.Config, maxNodes int) (*refresh.Snapshot, []int32, error) {
	if st.Segment == nil {
		return nil, nil, nil
	}
	if st.Segment.Shards != k || st.Segment.Shard != shardID {
		return nil, nil, fmt.Errorf("persist: segment %s belongs to shard %d/%d, replaying as %d/%d — the -shard/-shards flags disagree with the persisted partition; restart with -shard %d -shards %d, or point -data-dir at a fresh directory to resplit",
			st.Segment.Path, st.Segment.Shard, st.Segment.Shards, shardID, k, st.Segment.Shard, st.Segment.Shards)
	}
	if cfg.PartitionMap == nil && st.Segment.Epoch != 0 {
		// Replaying under the base map a history that was routed under
		// a rebalanced one would reproduce the wrong ownership; the
		// caller must decode State.PartitionMap into the config first.
		return nil, nil, fmt.Errorf("persist: segment %s was sealed at partition epoch %d; replay requires the persisted map (State.PartitionMap) in the config", st.Segment.Path, st.Segment.Epoch)
	}
	rcfg := cfg
	rcfg.Debounce = replayDebounce
	rcfg.LogBatch = nil
	rcfg.OnSwap = nil
	maxNodes = max(maxNodes, st.Segment.MaxNodes)
	return recoverTail(st, maxNodes, func(start *refresh.Snapshot, table []int32, tail []wal.EdgeBatch, pubs []wal.Publish) (*refresh.Snapshot, []int32, error) {
		w := shard.NewWorkerFromSnapshot(start, table, shardID, k, rcfg, maxNodes)
		defer w.Close()
		err := replayGroups(tail, pubs, func(b wal.EdgeBatch) error {
			_, _, err := w.ApplyBatch(shard.Batch{Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove})
			return err
		}, func() error {
			_, err := w.Flush(context.Background())
			return err
		})
		return w.Snapshot(), w.Table(), err
	})
}
