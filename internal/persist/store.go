package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cover"
	"repro/internal/refresh"
	"repro/internal/wal"
)

// Options configures a Store.
type Options struct {
	// Dir is the data directory. Created if missing.
	Dir string
	// FsyncEveryBatch fsyncs each WAL record before the batch is
	// acknowledged (the -wal-fsync flag). Off, durability of the tail is
	// bounded by the OS flush interval, but order and atomicity still
	// hold.
	FsyncEveryBatch bool
	// SegmentEvery writes a snapshot segment every N publishes
	// (default 8). A clean shutdown always seals a final segment
	// regardless.
	SegmentEvery uint64
	// Retain keeps the newest N segments on disk (default 3, min 1);
	// older segments and the WAL files wholly covered by a retained
	// segment are deleted. Retained segments serve ?generation=
	// point-in-time reads.
	Retain int
	// Shard/Shards identify the partition slice persisted here
	// (Shards 0 = single-graph role). Both are stamped into segment
	// metadata and verified on load: a segment of another slice is an
	// error, never served.
	Shard  int
	Shards int
	// MaxNodes is the growth ceiling and GlobalNodes the node count of
	// the input graph the deployment was bootstrapped from. Both are
	// stamped into segment metadata for the next boot to read back
	// (Segment.MaxNodes / Segment.GlobalNodes) and are not verified: a
	// restart may raise the ceiling, never lower it. A caller that only
	// learns them from Load sets them afterwards with SetNodeBounds.
	MaxNodes    int
	GlobalNodes int
}

// Stats is a point-in-time view of the store for observability
// endpoints.
type Stats struct {
	Dir             string    `json:"dir"`
	Segments        int       `json:"segments"`
	NewestSegment   uint64    `json:"newest_segment_generation,omitempty"`
	LastSegmentAt   time.Time `json:"last_segment_at,omitzero"`
	WALBaseGen      uint64    `json:"wal_base_generation"`
	WALBytes        int64     `json:"wal_bytes"`
	WALFsync        bool      `json:"wal_fsync"`
	LoggedBatches   uint64    `json:"logged_batches"`
	SegmentFailures uint64    `json:"segment_failures"`
	// LastError is the newest failure to log a publish or seal a segment.
	LastError string `json:"last_error,omitempty"`
	// Recovery facts from the startup Load, frozen afterwards.
	Recovered RecoveryStats `json:"recovered"`
}

// RecoveryStats summarizes what the startup recovery found.
type RecoveryStats struct {
	// Source is "cold" (empty dir), "segment" (no WAL tail) or
	// "segment+wal" (tail replayed).
	Source string `json:"source"`
	// SegmentGen is the generation of the segment served from.
	SegmentGen uint64 `json:"segment_generation,omitempty"`
	// ReplayedBatches/ReplayedOps count the WAL tail replayed on top.
	ReplayedBatches int `json:"replayed_batches,omitempty"`
	ReplayedOps     int `json:"replayed_ops,omitempty"`
	// TornTail reports a WAL that ended mid-record and was truncated at
	// its last intact record.
	TornTail bool `json:"torn_tail,omitempty"`
	// SkippedSegments counts segment files that failed validation and
	// were passed over for an older one.
	SkippedSegments int `json:"skipped_segments,omitempty"`
	// PatchedPublishes counts the published generations of the tail that
	// recovery read back from their logged cover patches;
	// DerivedPublishes the ones the engine had to derive again — markers
	// without a usable patch, and the flush of batches that were accepted
	// but never published. Filled in by replay.
	PatchedPublishes int `json:"patched_publishes,omitempty"`
	DerivedPublishes int `json:"derived_publishes,omitempty"`
}

// Store owns one data directory: the retained snapshot segments and the
// live WAL. All methods are safe for concurrent use.
type Store struct {
	opts Options

	mu            sync.Mutex
	log           *wal.Log
	logBase       uint64 // base generation of the live WAL
	newestSeg     uint64
	segments      int
	lastSegAt     time.Time
	pubsSinceSeg  uint64
	loggedBatches uint64
	segFailures   uint64
	lastErr       string
	recovered     RecoveryStats

	// epoch/pmap are the partition-map facts stamped into every segment
	// sealed from now on (see SetPartition). Zero/nil = epoch-0 base.
	// sealedEpoch is the epoch the newest segment carries: Seal's
	// same-generation skip must not suppress a seal whose only change
	// is the partition map (a map install on an unaffected shard
	// advances the epoch without publishing a generation).
	epoch       uint64
	pmap        []byte
	sealedEpoch uint64
	// sealedNodes is the (global_nodes, max_nodes) pair the newest
	// segment carries; like sealedEpoch it keeps the same-generation
	// skip from suppressing a seal whose only change is the identity —
	// the boot that first learns global_nodes for a directory written
	// without it, or that raises the ceiling, records it at once.
	sealedNodes [2]int
	// foldedGen is the generation recovery read back entirely from the
	// log (segment + described publishes, nothing derived); 0 when there
	// is none. Such a generation is already durable, so the boot seal —
	// which exists to make derived state durable — skips it. Set by
	// replay, cleared by Begin: the rule covers the boot seal only.
	foldedGen uint64
}

// Open creates (if needed) the data directory and returns a Store over
// it. No files are read or written yet: call Load to recover, then
// Boot to start the live WAL. OpenShard and OpenSingle do all three.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: data dir must not be empty")
	}
	if opts.SegmentEvery == 0 {
		opts.SegmentEvery = 8
	}
	if opts.Retain < 1 {
		opts.Retain = 3
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	s := &Store{opts: opts}
	if segs := s.listSegments(); len(segs) > 0 {
		s.segments, s.newestSeg = len(segs), segs[len(segs)-1]
	}
	return s, nil
}

// SetPartition records the partition map the shard now routes under;
// every segment sealed afterwards carries it. enc is the map's binary
// encoding (shard.PartitionMap.Encode) — the store treats it as opaque
// bytes so persist stays below the shard package. Call it from the
// rebalance map-change hook before forcing the durability seal, so a
// recovery after the flip comes back at the flipped epoch.
func (s *Store) SetPartition(epoch uint64, enc []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epoch
	s.pmap = append([]byte(nil), enc...)
}

// SetNodeBounds replaces Options.GlobalNodes and Options.MaxNodes for
// every segment sealed from now on. A warm boot opens the store before
// it knows either — both come out of the segment Load recovers — so it
// calls this between Load and its first Seal. When the pair differs
// from what the recovered segment carries, that Seal rewrites the
// segment even at an unchanged generation.
func (s *Store) SetNodeBounds(globalNodes, maxNodes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts.GlobalNodes, s.opts.MaxNodes = globalNodes, maxNodes
}

func (s *Store) nodeBounds() [2]int { return [2]int{s.opts.GlobalNodes, s.opts.MaxNodes} }

// listSegments returns the generations with a segment file present, in
// ascending order.
func (s *Store) listSegments() []uint64 {
	return listByPattern(s.opts.Dir, SegmentPattern, ".ocaseg")
}

func (s *Store) listWALs() []uint64 {
	return listByPattern(s.opts.Dir, WALPattern, ".ocawal")
}

func listByPattern(dir, pattern, ext string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ext {
			continue
		}
		var gen uint64
		if _, err := fmt.Sscanf(e.Name(), pattern, &gen); err == nil {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// Boot makes snap, the generation a role is about to serve, the base of
// the live WAL: it seals snap (see Seal: only what the directory lacks)
// so the WAL always replays onto a segment, then begins the WAL. Call
// it once after recovery, before the first mutation is accepted.
func (s *Store) Boot(snap *refresh.Snapshot, table []int32) error {
	if err := s.Seal(snap, table); err != nil {
		return err
	}
	return s.Begin(snap.Gen)
}

// Begin starts the live WAL after generation gen; roles call Boot.
func (s *Store) Begin(gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beginLocked(gen)
}

func (s *Store) beginLocked(gen uint64) error {
	l, err := wal.Create(filepath.Join(s.opts.Dir, WALName(gen)), gen, s.opts.FsyncEveryBatch)
	if err != nil {
		return fmt.Errorf("persist: creating WAL: %w", err)
	}
	if err := syncDir(s.opts.Dir); err != nil {
		l.Close()
		return fmt.Errorf("persist: syncing data dir: %w", err)
	}
	if s.log != nil {
		s.log.Close()
	}
	s.log, s.logBase = l, gen
	s.foldedGen = 0
	return nil
}

// LogBatch is the refresh.Config.LogBatch hook for the single-graph
// role: it logs one accepted mutation batch. It runs under the refresh
// worker's mutex, so with FsyncEveryBatch the fsync serializes intake —
// the price of "acknowledged means durable".
func (s *Store) LogBatch(add, remove [][2]int32, seq uint64) error {
	return s.LogEdgeBatch(wal.EdgeBatch{Seq: seq, Add: add, Remove: remove})
}

// LogEdgeBatch logs one accepted batch with its translation-table
// growth — the sharded role's variant, fed from shard.Config.LogBatch
// through glue that converts shard.Batch.
func (s *Store) LogEdgeBatch(b wal.EdgeBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("persist: store has no live WAL (Begin not called)")
	}
	if err := s.log.AppendEdgeBatch(b); err != nil {
		return err
	}
	s.loggedBatches++
	return nil
}

// OnPublish records a published generation: the snapshot's cover patch
// (when it carries one) and a publish marker are appended to the WAL in
// one write, and every Options.SegmentEvery publishes — counted from
// the newest segment, across restarts — the snapshot is written as a
// new segment, the WAL is rotated and retention pruning runs. table is
// the generation's local→global translation prefix (nil on the single
// role). Call it from the publish hook (refresh.Config.OnSwap) —
// segment writes block the worker goroutine, never readers.
func (s *Store) OnPublish(snap *refresh.Snapshot, table []int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("persist: store has no live WAL (Begin not called)")
	}
	pub := wal.Publish{Gen: snap.Gen, Seq: snap.Seq}
	var err error
	if snap.Patch != nil {
		err = s.log.AppendPatchedPublish(encodePatch(pub, snap.Patch))
	} else {
		err = s.log.AppendPublish(pub)
	}
	if err != nil {
		return s.failed(err)
	}
	s.pubsSinceSeg++
	if s.pubsSinceSeg < s.opts.SegmentEvery {
		return nil
	}
	if err := s.sealLocked(snap, table); err != nil {
		s.segFailures++
		return s.failed(err)
	}
	return nil
}

// Seal writes snap as a segment and rotates the WAL, so a subsequent
// restart recovers by a pure segment load with no replay. Call on
// graceful shutdown (after the refresh worker stopped); at startup Boot
// calls it, and there it writes what the directory does not already
// hold — a cold build, a generation replay derived, a new identity or
// epoch — and nothing for a generation replay read back whole from the
// log.
func (s *Store) Seal(snap *refresh.Snapshot, table []int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if (s.newestSeg == snap.Gen || s.foldedGen == snap.Gen) && s.segments > 0 && s.sealedEpoch == s.epoch && s.sealedNodes == s.nodeBounds() {
		// Already durable at this epoch and identity: sealed at this
		// generation, or read back whole from the log by this boot.
		return nil
	}
	return s.failed(s.sealLocked(snap, table))
}

// failed records err, when there is one, as Stats.LastError.
func (s *Store) failed(err error) error {
	if err != nil {
		s.lastErr = err.Error()
	}
	return err
}

// sealLocked writes the segment, rotates the WAL onto the new base
// generation and prunes. Crash-safe ordering: the segment lands
// atomically first, so a crash at any later step only leaves extra WAL
// files, which recovery filters by sequence number.
func (s *Store) sealLocked(snap *refresh.Snapshot, table []int32) error {
	path := filepath.Join(s.opts.Dir, SegmentName(snap.Gen))
	err := WriteSegment(path, SegmentData{
		Info:        snap.Info(),
		Shard:       s.opts.Shard,
		Shards:      s.opts.Shards,
		MaxNodes:    s.opts.MaxNodes,
		GlobalNodes: s.opts.GlobalNodes,
		Epoch:       s.epoch,
		PMap:        s.pmap,
		Graph:       snap.Graph,
		Cover:       snap.Cover,
		Table:       table,
	})
	if err != nil {
		return fmt.Errorf("persist: writing segment %d: %w", snap.Gen, err)
	}
	if snap.Gen != s.newestSeg {
		s.segments++
	}
	s.newestSeg = snap.Gen
	s.sealedEpoch = s.epoch
	s.sealedNodes = s.nodeBounds()
	s.lastSegAt = time.Now()
	s.pubsSinceSeg = 0
	// A live WAL already based at this generation holds only batches
	// accepted since and not yet published — a boot that skipped its seal
	// began it — and re-creating it would truncate them.
	if s.log == nil || s.logBase != snap.Gen {
		if err := s.beginLocked(snap.Gen); err != nil {
			return err
		}
	}
	s.pruneLocked()
	return nil
}

// Close closes the live WAL. The store's files stay valid for the next
// process.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// pruneLocked enforces Options.Retain: the newest Retain segments stay;
// older segments go, along with every WAL file other than the live one
// whose records are wholly covered by a retained segment (base
// generation below the newest segment's).
func (s *Store) pruneLocked() {
	segs := s.listSegments()
	if drop := len(segs) - s.opts.Retain; drop > 0 {
		for _, gen := range segs[:drop] {
			if os.Remove(filepath.Join(s.opts.Dir, SegmentName(gen))) == nil {
				s.segments--
			}
		}
	}
	for _, gen := range s.listWALs() {
		if gen < s.newestSeg && gen != s.logBase {
			os.Remove(filepath.Join(s.opts.Dir, WALName(gen)))
		}
	}
}

// Generations lists the retained segment generations, ascending — the
// point-in-time reads ?generation= can serve.
func (s *Store) Generations() []uint64 { return s.listSegments() }

// OpenGeneration loads the retained segment for generation gen (a
// point-in-time read). The caller owns the returned Segment and must
// Close it.
func (s *Store) OpenGeneration(gen uint64) (*Segment, error) {
	seg, err := LoadSegment(filepath.Join(s.opts.Dir, SegmentName(gen)))
	if err != nil {
		return nil, err
	}
	if err := s.checkIdentity(seg); err != nil {
		seg.Close()
		return nil, err
	}
	return seg, nil
}

// encodePatch turns a snapshot's cover patch into its WAL record.
func encodePatch(pub wal.Publish, p *refresh.Patch) wal.CoverPatch {
	cp := wal.CoverPatch{
		Publish: pub, Mode: byte(slices.Index(patchModes[:], p.Mode)), Carried: p.Carried, C: p.C,
		Dirty: uint32(p.DirtyNodes), Removed: p.Removed,
	}
	if len(p.Fresh) > 0 {
		cp.Fresh = make([][]int32, len(p.Fresh))
		for i, c := range p.Fresh {
			cp.Fresh[i] = c
		}
	}
	return cp
}

// decodePatch is encodePatch's inverse.
func decodePatch(cp wal.CoverPatch) *refresh.Patch {
	p := &refresh.Patch{Mode: patchModes[cp.Mode], Carried: cp.Carried, C: cp.C, DirtyNodes: int(cp.Dirty), Removed: cp.Removed}
	if len(cp.Fresh) > 0 {
		p.Fresh = make([]cover.Community, len(cp.Fresh))
		for i, c := range cp.Fresh {
			p.Fresh[i] = c
		}
	}
	return p
}

// patchModes names refresh's rebuild modes by the WAL's mode byte
// (wal.DecodeCoverPatch rejects bytes beyond it).
var patchModes = [...]string{
	wal.PatchFull:        refresh.ModeFull,
	wal.PatchIncremental: refresh.ModeIncremental,
	wal.PatchFastpath:    refresh.ModeFastpath,
}

func (s *Store) checkIdentity(seg *Segment) error {
	if seg.Shard != s.opts.Shard || seg.Shards != s.opts.Shards {
		return fmt.Errorf("persist: %s belongs to shard %d/%d, this store serves %d/%d",
			seg.Path, seg.Shard, seg.Shards, s.opts.Shard, s.opts.Shards)
	}
	return nil
}

// Stats returns a point-in-time view of the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:             s.opts.Dir,
		Segments:        s.segments,
		NewestSegment:   s.newestSeg,
		LastSegmentAt:   s.lastSegAt,
		WALBaseGen:      s.logBase,
		WALFsync:        s.opts.FsyncEveryBatch,
		LoggedBatches:   s.loggedBatches,
		SegmentFailures: s.segFailures,
		LastError:       s.lastErr,
		Recovered:       s.recovered,
	}
	if s.log != nil {
		st.WALBytes = s.log.Size()
	}
	return st
}
