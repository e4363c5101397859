package persist

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

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
	// Tail holds the WAL batches with Seq beyond the segment's, in
	// order. Replaying them through the incremental engine reproduces
	// the pre-crash state in O(batch) per record.
	Tail []wal.EdgeBatch
	// Publishes are the publish markers beyond the segment, in order.
	// They record how the live worker grouped Tail into rebuilds; replay
	// flushes at the same boundaries so the recovered cover is
	// bit-identical to the pre-crash one, not merely equivalent.
	Publishes []wal.Publish
	// LastGen/LastSeq are the newest published generation and its op
	// count according to the publish markers — at least the segment's
	// own. The recovered snapshot's generation is forced to LastGen so
	// clients see no generation regression across the restart.
	LastGen uint64
	LastSeq uint64
	// Stats summarizes the scan for /healthz.
	Stats RecoveryStats
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
	if len(st.Segment.PMap) == 0 {
		if st.Segment.Epoch != 0 {
			return nil, fmt.Errorf("persist: %s records partition epoch %d but carries no map — segment corrupt; remove it to fall back to an older one", st.Segment.Path, st.Segment.Epoch)
		}
		return nil, nil
	}
	pm, err := shard.DecodePartitionMap(st.Segment.PMap)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: decoding persisted partition map: %w", st.Segment.Path, err)
	}
	if pm.Epoch != st.Segment.Epoch {
		return nil, fmt.Errorf("persist: %s: partition map is at epoch %d but segment meta records %d — segment corrupt; remove it to fall back to an older one", st.Segment.Path, pm.Epoch, st.Segment.Epoch)
	}
	return pm, nil
}

// Load scans the data directory for the newest valid segment and the
// WAL tail beyond it. Corrupt or torn segments are skipped in favor of
// older ones; a torn WAL tail is cut at its last intact record. An
// empty directory is a clean cold start, not an error. Load does not
// start the live WAL — call Begin once the serving snapshot is known.
func (s *Store) Load() (*State, error) {
	st := &State{}

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
		for _, rec := range recs {
			switch rec.Type {
			case wal.RecEdgeBatch:
				b, err := wal.DecodeEdgeBatch(rec.Payload)
				if err != nil {
					return nil, fmt.Errorf("persist: WAL %d: %w", gen, err)
				}
				if b.Seq > baseSeq {
					st.Tail = append(st.Tail, b)
					st.Stats.ReplayedBatches++
					st.Stats.ReplayedOps += len(b.Add) + len(b.Remove)
				}
			case wal.RecPublish:
				p, err := wal.DecodePublish(rec.Payload)
				if err != nil {
					return nil, fmt.Errorf("persist: WAL %d: %w", gen, err)
				}
				if p.Seq > baseSeq {
					st.Publishes = append(st.Publishes, p)
				}
				if p.Gen > st.LastGen {
					st.LastGen, st.LastSeq = p.Gen, p.Seq
				}
			}
		}
	}
	if st.Segment == nil && len(st.Tail) > 0 {
		// A WAL without any segment means generation 1 was never
		// persisted; its batches cannot replay onto anything. Treat as
		// cold — the caller rebuilds from its input graph.
		st.Tail = nil
		st.Publishes = nil
		st.Stats.ReplayedBatches, st.Stats.ReplayedOps = 0, 0
	}
	if len(st.Tail) > 0 {
		st.Stats.Source = "segment+wal"
	}

	s.mu.Lock()
	s.recovered = st.Stats
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

// replayGroups feeds the WAL tail to a worker, flushing at the exact
// publish boundaries the live worker used. The markers record which
// batches each published generation coalesced; replaying with the same
// grouping makes the recovered cover bit-identical to the pre-crash
// one — the incremental engine's output depends on how mutations were
// batched into rebuilds, not just on their union. Batches past the last
// marker (accepted but never published before the crash) get one final
// flush of their own.
func replayGroups(st *State, apply func(wal.EdgeBatch) error, flush func() error) error {
	i, pending := 0, 0
	step := func(upTo uint64) error {
		for i < len(st.Tail) && st.Tail[i].Seq <= upTo {
			if err := apply(st.Tail[i]); err != nil {
				return fmt.Errorf("persist: replaying batch seq %d: %w", st.Tail[i].Seq, err)
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
	for _, p := range st.Publishes {
		if err := step(p.Seq); err != nil {
			return err
		}
	}
	return step(^uint64(0))
}

// ReplayConfig tunes the throwaway worker ReplaySingle drives the WAL
// tail through.
type ReplayConfig struct {
	// Refresh carries the serving rebuild options (OCA, incremental
	// threshold, warm start, MaxNodes). Debounce and the persistence
	// hooks are overridden: replay never logs to the WAL it is reading.
	Refresh refresh.Config
}

// ReplaySingle reproduces the pre-shutdown snapshot for the
// single-graph role: the segment's snapshot plus the WAL tail applied
// through the incremental rebuild engine, with the generation forced to
// the last published one so the restart is invisible to generation-
// tracking clients. A nil-segment state returns nil (cold start).
func ReplaySingle(st *State, cfg ReplayConfig) (*refresh.Snapshot, error) {
	if st.Segment == nil {
		return nil, nil
	}
	snap := st.Segment.Snapshot()
	if len(st.Tail) > 0 {
		rcfg := cfg.Refresh
		rcfg.Debounce = -1 // replay has no bursts to coalesce
		rcfg.LogBatch = nil
		rcfg.OnSwap = nil
		if rcfg.OCA.C == 0 {
			// Pin the recovered inner-product parameter: re-deriving the
			// spectrum per replayed batch would turn an O(batch) replay
			// into repeated whole-graph eigenvalue runs.
			rcfg.OCA.C = snap.C
		}
		if rcfg.MaxNodes < st.Segment.MaxNodes {
			rcfg.MaxNodes = st.Segment.MaxNodes
		}
		w := refresh.New(snap, rcfg)
		w.Start()
		defer w.Close()
		err := replayGroups(st, func(b wal.EdgeBatch) error {
			_, _, err := w.Enqueue(b.Add, b.Remove)
			return err
		}, func() error {
			_, err := w.Flush(context.Background())
			return err
		})
		if err != nil {
			return nil, err
		}
		snap = w.Snapshot()
	}
	if st.LastGen > snap.Gen {
		forced := *snap
		forced.Gen = st.LastGen
		snap = &forced
	}
	return snap, nil
}

// ReplayShard reproduces a shard's pre-shutdown state: the segment's
// snapshot and translation table, plus — when there is a WAL tail — the
// tail replayed through a throwaway shard worker rebuilt from the
// segment (no OCA run), whose ApplyBatch reconciles the logged
// translation-table growth exactly like the original fan-out did. The
// snapshot's generation is forced to the last published one. It
// returns the final snapshot and the full translation table, from
// which the caller builds the serving worker
// (shard.NewWorkerFromSnapshot). A nil-segment state returns nils
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
	snap, table := st.Segment.Snapshot(), st.Segment.Table
	if len(st.Tail) > 0 {
		rcfg := cfg
		rcfg.Debounce = -1
		rcfg.LogBatch = nil
		rcfg.OnSwap = nil
		if maxNodes < st.Segment.MaxNodes {
			maxNodes = st.Segment.MaxNodes
		}
		w := shard.NewWorkerFromSnapshot(snap, table, shardID, k, rcfg, maxNodes)
		defer w.Close()
		err := replayGroups(st, func(b wal.EdgeBatch) error {
			_, _, err := w.ApplyBatch(shard.Batch{Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove})
			return err
		}, func() error {
			_, err := w.Flush(context.Background())
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		snap, table = w.Snapshot(), w.Table()
	}
	if st.LastGen > snap.Gen {
		forced := *snap
		forced.Gen = st.LastGen
		snap = &forced
	}
	return snap, table, nil
}
