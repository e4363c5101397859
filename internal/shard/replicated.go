package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/resilience"
)

// ReplicaSet serves one shard from N backends — a single writable
// primary plus read replicas — behind the plain Backend interface, so a
// Router fans out over replica sets exactly as it does over single
// backends. Writes (Lookup, EnsureLocal, Apply, Flush) and the
// admission Status go only to the primary: a dead primary degrades
// writes exactly as a single remote backend does. View — the one read
// the router makes, answered from a member's local mirror — picks among
// the sufficiently fresh members:
//
//   - Generation floor: Flush raises a read-your-writes floor (the
//     same contract as the transport client's mirror floor), and every
//     generation served ratchets a monotone-read floor — a view never
//     goes backwards, even across a failover to a laggier member.
//   - Eligibility: a member whose backend reports an error, lags the
//     floor, is draining, or has an open circuit breaker is skipped.
//   - Order: the primary first (it is the freshest), unless a replica
//     reports a shallower mutation queue.
//
// If no member qualifies the primary's own (possibly degraded) view is
// served so error semantics match the unreplicated path. Replicas
// therefore buy availability under a dead or broken primary; they do
// not add read capacity — reads never leave the router process.
type ReplicaSet struct {
	shardID int
	members []Backend // members[0] is the primary

	minGen atomic.Uint64 // read-your-writes floor raised by Flush
	served atomic.Uint64 // monotone-read ratchet: highest generation served
}

// NewReplicaSet assembles a replica set from a primary backend and its
// read replicas. It takes ownership of all of them: Close closes every
// member.
func NewReplicaSet(primary Backend, replicas []Backend) *ReplicaSet {
	return &ReplicaSet{
		shardID: primary.Status().Shard,
		members: append([]Backend{primary}, replicas...),
	}
}

// floor is the generation below which no read may answer.
func (rs *ReplicaSet) floor() uint64 {
	f, s := rs.minGen.Load(), rs.served.Load()
	if s > f {
		return s
	}
	return f
}

func (rs *ReplicaSet) ratchet(gen uint64) {
	for {
		cur := rs.served.Load()
		if gen <= cur || rs.served.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// --- Backend ---

// Lookup resolves a global id in the primary's translation table (the
// single writable table; replicas mirror it).
func (rs *ReplicaSet) Lookup(global int32) (int32, bool) { return rs.members[0].Lookup(global) }

// EnsureLocal grows the primary's translation table.
func (rs *ReplicaSet) EnsureLocal(global int32) int32 { return rs.members[0].EnsureLocal(global) }

// Apply ships the batch to the primary; replicas pick it up through
// their snapshot sync.
func (rs *ReplicaSet) Apply(ctx context.Context, add, remove [][2]int32) error {
	return rs.members[0].Apply(ctx, add, remove)
}

// InstallPartitionMap forwards a partition-map install to the primary,
// the set's only writer; replicas adopt the map by mirroring the
// primary's published state. Without this a replicated backend would
// refuse the rebalancer's map broadcast.
func (rs *ReplicaSet) InstallPartitionMap(ctx context.Context, pm *PartitionMap, pending bool) error {
	return installMap(ctx, rs.members[0], pm, pending)
}

// Ingest ships slice-transfer traffic to the primary on its dedicated
// path (falling back to Apply for primaries without one).
func (rs *ReplicaSet) Ingest(ctx context.Context, add, remove [][2]int32) error {
	return ingestEdges(ctx, rs.members[0], add, remove)
}

// Flush flushes the primary and raises the read-your-writes floor to
// the flushed generation: until a replica's mirror catches up it is
// excluded from read selection.
func (rs *ReplicaSet) Flush(ctx context.Context) (uint64, error) {
	gen, err := rs.members[0].Flush(ctx)
	if err != nil {
		return gen, err
	}
	for {
		cur := rs.minGen.Load()
		if gen <= cur || rs.minGen.CompareAndSwap(cur, gen) {
			return gen, nil
		}
	}
}

// View serves, among the members eligible at the floor, the one with
// the shallowest mutation queue — the primary (then list order) winning
// ties. With no eligible member it returns the primary's own view —
// stale mirror plus explicit error, the same degraded shape as an
// unreplicated backend — with the floor enforced on top.
func (rs *ReplicaSet) View() View {
	fl := rs.floor()
	var best View
	found, bestDepth := false, 0
	for _, m := range rs.members {
		v := m.View()
		if v.Err != nil || v.Snap == nil || v.Snap.Gen < fl {
			continue
		}
		if d, ok := m.(interface{ Draining() bool }); ok && d.Draining() {
			continue
		}
		// A member whose circuit breaker is open (or probing) is skipped:
		// its mirror would still answer, but it is no longer being
		// refreshed, and the set should converge on members that are.
		if b, ok := m.(interface{ BreakerOpen() bool }); ok && b.BreakerOpen() {
			continue
		}
		if depth := m.Status().Status.Pending; !found || depth < bestDepth {
			best, bestDepth, found = v, depth, true
		}
	}
	if !found {
		v := rs.members[0].View()
		if v.Err == nil && v.Snap != nil && v.Snap.Gen < fl {
			v.Err = fmt.Errorf("shard %d: %w: no replica at generation >= %d (primary at %d)",
				rs.shardID, ErrUnavailable, fl, v.Snap.Gen)
		}
		return v
	}
	rs.ratchet(best.Snap.Gen)
	return best
}

// Status reports the primary's status — the router's write-admission
// signal, so a dead primary rejects mutations exactly as an
// unreplicated dead backend does while reads keep serving.
func (rs *ReplicaSet) Status() WorkerStatus { return rs.members[0].Status() }

// Close closes every member.
func (rs *ReplicaSet) Close() {
	for _, m := range rs.members {
		m.Close()
	}
}

// --- observability ---

// ReplicaStat is one member's point-in-time replication state.
type ReplicaStat struct {
	// Addr identifies the member (its base URL for remote members,
	// "primary"/"replica-N" otherwise); Role is "primary" or "replica".
	Addr string `json:"addr"`
	Role string `json:"role"`
	// Generation is the member's mirrored generation as this router
	// sees it; Lag is the primary's generation minus it (0 when the
	// member is current or ahead of the last primary probe).
	Generation uint64 `json:"generation"`
	Lag        uint64 `json:"lag_generations"`
	// QueueDepth is the shard's pending-mutation gauge as reported
	// through the member.
	QueueDepth int `json:"queue_depth"`
	// Healthy is false while the member's backend reports an error;
	// Draining while it advertises a shutdown in progress.
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	Error    string `json:"error,omitempty"`
	// Resilience carries the member's breaker/retry/deadline counters
	// (remote members only — in-process backends have no transport to
	// break).
	Resilience *resilience.Stats `json:"resilience,omitempty"`
}

// ReplicaSetStats is one shard's replica-set state: the read floor plus
// every member's freshness.
type ReplicaSetStats struct {
	Shard   int           `json:"shard"`
	Floor   uint64        `json:"floor"`
	Members []ReplicaStat `json:"members"`
}

// ResilienceStats aggregates every member's breaker/retry/deadline
// counters (breaker state pessimistically: any open member reports
// open) — the shard-level rollup the router exports. Members without a
// transport (in-process workers) contribute nothing.
func (rs *ReplicaSet) ResilienceStats() resilience.Stats {
	var agg resilience.Stats
	for _, m := range rs.members {
		if rst, ok := m.(interface{ ResilienceStats() resilience.Stats }); ok {
			agg.Add(rst.ResilienceStats())
		}
	}
	return agg
}

// ReplicaStats reports the set's floor and per-member freshness. It
// never blocks and triggers no I/O: generations and statuses come from
// the members' local mirrors.
func (rs *ReplicaSet) ReplicaStats() ReplicaSetStats {
	st := ReplicaSetStats{
		Shard:   rs.shardID,
		Floor:   rs.floor(),
		Members: make([]ReplicaStat, len(rs.members)),
	}
	gens := make([]uint64, len(rs.members))
	for i, m := range rs.members {
		if g, ok := m.(interface{ MirrorGen() uint64 }); ok {
			gens[i] = g.MirrorGen()
		} else if v := m.View(); v.Snap != nil {
			gens[i] = v.Snap.Gen
		}
	}
	for i, m := range rs.members {
		ms := m.Status()
		// Healthy is the serving signal — the same one View routes by:
		// can this router read from the member right now. Status errors
		// (a replica relaying its dead upstream, say) surface in Error
		// without flipping Healthy; a replica serving its mirror under a
		// dead primary is healthy by design.
		v := m.View()
		r := ReplicaStat{
			Role:       "replica",
			Generation: gens[i],
			QueueDepth: ms.Status.Pending,
			Healthy:    v.Err == nil && v.Snap != nil,
			Error:      ms.Err,
		}
		if v.Err != nil {
			r.Error = v.Err.Error()
		}
		if i == 0 {
			r.Role = "primary"
		} else if gens[0] > gens[i] {
			r.Lag = gens[0] - gens[i]
		}
		if a, ok := m.(interface{ Addr() string }); ok {
			r.Addr = a.Addr()
		} else if i == 0 {
			r.Addr = "primary"
		} else {
			r.Addr = fmt.Sprintf("replica-%d", i)
		}
		if d, ok := m.(interface{ Draining() bool }); ok {
			r.Draining = d.Draining()
		}
		if rst, ok := m.(interface{ ResilienceStats() resilience.Stats }); ok {
			s := rst.ResilienceStats()
			r.Resilience = &s
		}
		st.Members[i] = r
	}
	return st
}
