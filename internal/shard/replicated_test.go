package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/refresh"
)

// fakeBackend is a scriptable Backend for replica-set routing tests:
// every signal the selection logic consumes (generation, view error,
// status error, queue depth, draining) is settable.
type fakeBackend struct {
	shardID int
	member  int // index within the set, stamped into served snapshots

	mu          sync.Mutex
	gen         uint64
	viewErr     error
	statusErr   string
	pending     int
	draining    bool
	breakerOpen bool
	flushGen    uint64
	flushErr    error
	applies     int
	flushes     int
	closed      bool
}

func (f *fakeBackend) set(fn func(*fakeBackend)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeBackend) Lookup(g int32) (int32, bool) { return g, true }
func (f *fakeBackend) EnsureLocal(g int32) int32    { return g }

func (f *fakeBackend) Apply(_ context.Context, add, remove [][2]int32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applies++
	return nil
}

func (f *fakeBackend) View() View {
	f.mu.Lock()
	defer f.mu.Unlock()
	return RemoteView(f.shardID, &refresh.Snapshot{Gen: f.gen, Seq: uint64(f.member)}, nil, f.viewErr)
}

func (f *fakeBackend) Flush(ctx context.Context) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes++
	if f.flushErr != nil {
		return 0, f.flushErr
	}
	if f.flushGen > f.gen {
		f.gen = f.flushGen
	}
	return f.gen, nil
}

func (f *fakeBackend) Status() WorkerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return WorkerStatus{
		Shard:  f.shardID,
		Status: refresh.Status{Gen: f.gen, Pending: f.pending},
		Err:    f.statusErr,
	}
}

func (f *fakeBackend) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

func (f *fakeBackend) BreakerOpen() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.breakerOpen
}

func (f *fakeBackend) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
}

func newTestSet(t *testing.T, gens []uint64) (*ReplicaSet, []*fakeBackend) {
	t.Helper()
	fakes := make([]*fakeBackend, len(gens))
	for i, g := range gens {
		fakes[i] = &fakeBackend{shardID: 0, gen: g, member: i}
	}
	reps := make([]Backend, 0, len(fakes)-1)
	for _, f := range fakes[1:] {
		reps = append(reps, f)
	}
	rs := NewReplicaSet(fakes[0], reps)
	t.Cleanup(rs.Close)
	return rs, fakes
}

// servedBy reports which member a view came from (fakeBackend stamps
// its index into the snapshot's Seq).
func servedBy(v View) int { return int(v.Snap.Seq) }

// busy gives a member a deep mutation queue, so that — were it eligible
// alongside an idle member — the idle one would be preferred.
func busy(f *fakeBackend) { f.set(func(f *fakeBackend) { f.pending = 640 }) }

// TestReplicaSetRouting is the table-driven failure-mode matrix for
// read selection, asserted on View — the one read the router makes:
// which member's mirror a view is served from (or that it carries an
// explicit error) for each combination of lag, floor, queue depth,
// errors, draining and open breakers.
func TestReplicaSetRouting(t *testing.T) {
	cases := []struct {
		name string
		gens []uint64 // member generations; [0] is the primary
		prep func(rs *ReplicaSet, fakes []*fakeBackend)

		wantMember int
		wantErr    string // substring; empty means success
	}{
		{
			name: "least loaded replica wins",
			gens: []uint64{5, 5, 5},
			prep: func(_ *ReplicaSet, fakes []*fakeBackend) {
				fakes[0].set(func(f *fakeBackend) { f.pending = 256 })
				fakes[1].set(func(f *fakeBackend) { f.pending = 64 })
				// member 2 idle
			},
			wantMember: 2,
		},
		{
			name:       "primary wins ties",
			gens:       []uint64{5, 5},
			wantMember: 0,
		},
		{
			name: "lagging replica excluded by flush floor",
			gens: []uint64{5, 3},
			prep: func(rs *ReplicaSet, fakes []*fakeBackend) {
				fakes[0].set(func(f *fakeBackend) { f.flushGen = 5 })
				if _, err := rs.Flush(context.Background()); err != nil {
					panic(err)
				}
				// The lagging replica would otherwise win on load.
				busy(fakes[0])
			},
			wantMember: 0,
		},
		{
			name: "caught-up replica rejoins selection",
			gens: []uint64{5, 5},
			prep: func(rs *ReplicaSet, fakes []*fakeBackend) {
				fakes[0].set(func(f *fakeBackend) { f.flushGen = 5 })
				if _, err := rs.Flush(context.Background()); err != nil {
					panic(err)
				}
				busy(fakes[0])
			},
			wantMember: 1,
		},
		{
			name: "erroring replica excluded",
			gens: []uint64{5, 5},
			prep: func(_ *ReplicaSet, fakes []*fakeBackend) {
				fakes[1].set(func(f *fakeBackend) { f.viewErr = errors.New("mirror sync failed") })
				busy(fakes[0])
			},
			wantMember: 0,
		},
		{
			name: "draining replica excluded",
			gens: []uint64{5, 5},
			prep: func(_ *ReplicaSet, fakes []*fakeBackend) {
				fakes[1].set(func(f *fakeBackend) { f.draining = true })
				busy(fakes[0])
			},
			wantMember: 0,
		},
		{
			// A member whose circuit breaker is open is excluded even
			// though its mirror still looks healthy.
			name: "breaker-open replica excluded",
			gens: []uint64{5, 5},
			prep: func(_ *ReplicaSet, fakes []*fakeBackend) {
				fakes[1].set(func(f *fakeBackend) { f.breakerOpen = true })
				busy(fakes[0])
			},
			wantMember: 0,
		},
		{
			name: "breaker-open primary leaves replica serving reads",
			gens: []uint64{5, 5},
			prep: func(_ *ReplicaSet, fakes []*fakeBackend) {
				fakes[0].set(func(f *fakeBackend) { f.breakerOpen = true })
			},
			wantMember: 1,
		},
		{
			name: "dead primary leaves replica serving reads",
			gens: []uint64{5, 4},
			prep: func(_ *ReplicaSet, fakes []*fakeBackend) {
				fakes[0].set(func(f *fakeBackend) {
					f.viewErr = errors.New("connection refused")
					f.statusErr = "connection refused"
				})
			},
			wantMember: 1,
		},
		{
			name: "no member at floor fails explicitly",
			gens: []uint64{5, 4},
			prep: func(rs *ReplicaSet, fakes []*fakeBackend) {
				fakes[0].set(func(f *fakeBackend) { f.flushGen = 7 })
				if _, err := rs.Flush(context.Background()); err != nil {
					panic(err)
				}
				// Only a mirror below the flushed floor is left (the
				// primary was replaced by a stale restore, say).
				fakes[0].set(func(f *fakeBackend) { f.gen = 5 })
			},
			// No silent regression: the primary's view is returned for
			// identification, carrying an explicit unavailability.
			wantErr: "no replica at generation >= 7 (primary at 5)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs, fakes := newTestSet(t, tc.gens)
			if tc.prep != nil {
				tc.prep(rs, fakes)
			}
			v := rs.View()
			if tc.wantErr != "" {
				if v.Err == nil || !strings.Contains(v.Err.Error(), tc.wantErr) {
					t.Fatalf("View err = %v, want substring %q", v.Err, tc.wantErr)
				}
				if !errors.Is(v.Err, ErrUnavailable) {
					t.Fatalf("View err = %v, want ErrUnavailable", v.Err)
				}
				return
			}
			if v.Err != nil {
				t.Fatalf("View: %v", v.Err)
			}
			if got := servedBy(v); got != tc.wantMember {
				t.Fatalf("View served by member %d, want %d", got, tc.wantMember)
			}
		})
	}
}

func TestReplicaSetMonotoneReads(t *testing.T) {
	rs, fakes := newTestSet(t, []uint64{7, 5})

	// First view serves the freshest member and ratchets the floor.
	if v := rs.View(); v.Err != nil || servedBy(v) != 0 {
		t.Fatalf("View = member %d, %v; want primary", servedBy(v), v.Err)
	}
	if got := rs.floor(); got != 7 {
		t.Fatalf("floor after serving gen 7 = %d, want 7", got)
	}

	// The gen-7 member dies; the surviving gen-5 member must NOT serve —
	// a view may never go backwards for this router's clients. What comes
	// back is the dead primary's own degraded view.
	down := fmt.Errorf("%w: down", ErrUnavailable)
	fakes[0].set(func(f *fakeBackend) { f.viewErr = down })
	if v := rs.View(); !errors.Is(v.Err, ErrUnavailable) || servedBy(v) != 0 {
		t.Fatalf("View after regression = member %d, err %v; want the primary's ErrUnavailable", servedBy(v), v.Err)
	}

	// Once the replica catches up to the floor it takes over.
	fakes[1].set(func(f *fakeBackend) { f.gen = 7 })
	if v := rs.View(); v.Err != nil || servedBy(v) != 1 || v.Snap.Gen != 7 {
		t.Fatalf("View after catch-up = member %d gen %d, %v; want replica at 7", servedBy(v), v.Snap.Gen, v.Err)
	}
}

// TestReplicaSetFailoverOnError: the member views are being served from
// starts erroring mid-stream — the next view comes from the other
// member, and service returns to the preferred one when it recovers.
func TestReplicaSetFailoverOnError(t *testing.T) {
	rs, fakes := newTestSet(t, []uint64{5, 5})
	busy(fakes[0]) // make the replica the first choice

	if v := rs.View(); v.Err != nil || servedBy(v) != 1 {
		t.Fatalf("View = member %d, %v; want replica", servedBy(v), v.Err)
	}
	fakes[1].set(func(f *fakeBackend) { f.viewErr = errors.New("connection reset") })
	if v := rs.View(); v.Err != nil || servedBy(v) != 0 {
		t.Fatalf("View after replica error = member %d, %v; want primary", servedBy(v), v.Err)
	}
	fakes[1].set(func(f *fakeBackend) { f.viewErr = nil })
	if v := rs.View(); v.Err != nil || servedBy(v) != 1 {
		t.Fatalf("View after replica recovery = member %d, %v; want replica", servedBy(v), v.Err)
	}
}

func TestReplicaSetWritesGoToPrimary(t *testing.T) {
	rs, fakes := newTestSet(t, []uint64{3, 3, 3})
	fakes[0].set(func(f *fakeBackend) { f.flushGen = 4 })

	if err := rs.Apply(context.Background(), [][2]int32{{0, 1}}, nil); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	gen, err := rs.Flush(context.Background())
	if err != nil || gen != 4 {
		t.Fatalf("Flush = %d, %v; want 4", gen, err)
	}
	for i, f := range fakes {
		f.mu.Lock()
		applies, flushes := f.applies, f.flushes
		f.mu.Unlock()
		wantA, wantF := 0, 0
		if i == 0 {
			wantA, wantF = 1, 1
		}
		if applies != wantA || flushes != wantF {
			t.Fatalf("member %d saw %d applies / %d flushes, want %d/%d", i, applies, flushes, wantA, wantF)
		}
	}
	if got := rs.floor(); got != 4 {
		t.Fatalf("floor after flush = %d, want 4", got)
	}

	// Dead primary: Status carries the error (the router 503s writes)
	// while View still serves from a fresh replica.
	fakes[0].set(func(f *fakeBackend) {
		f.statusErr = "connection refused"
		f.viewErr = errors.New("connection refused")
	})
	fakes[1].set(func(f *fakeBackend) { f.gen = 4 })
	fakes[2].set(func(f *fakeBackend) { f.gen = 4 })
	if st := rs.Status(); st.Err == "" {
		t.Fatal("Status with dead primary must carry its error")
	}
	if v := rs.View(); v.Err != nil || v.Snap.Gen != 4 {
		t.Fatalf("View with dead primary = gen %d, err %v; want healthy gen 4", v.Snap.Gen, v.Err)
	}
}

func TestReplicaSetStats(t *testing.T) {
	rs, fakes := newTestSet(t, []uint64{9, 7, 9})
	fakes[2].set(func(f *fakeBackend) { f.pending = 12; f.draining = true })
	if v := rs.View(); v.Err != nil {
		t.Fatalf("View: %v", v.Err)
	}

	st := rs.ReplicaStats()
	if st.Shard != 0 || len(st.Members) != 3 {
		t.Fatalf("stats = %+v, want shard 0, 3 members", st)
	}
	if st.Members[0].Role != "primary" || st.Members[1].Role != "replica" {
		t.Fatalf("roles = %q/%q", st.Members[0].Role, st.Members[1].Role)
	}
	if st.Members[1].Lag != 2 || st.Members[0].Lag != 0 || st.Members[2].Lag != 0 {
		t.Fatalf("lags = %d/%d/%d, want 0/2/0", st.Members[0].Lag, st.Members[1].Lag, st.Members[2].Lag)
	}
	if st.Members[2].QueueDepth != 12 || !st.Members[2].Draining {
		t.Fatalf("member 2 = %+v, want queue depth 12 and draining", st.Members[2])
	}
	if !st.Members[0].Healthy {
		t.Fatal("healthy primary reported unhealthy")
	}
	if st.Floor != 9 {
		t.Fatalf("floor = %d, want 9 (ratcheted by the view)", st.Floor)
	}
}

func TestReplicaSetCloseClosesAllMembers(t *testing.T) {
	rs, fakes := newTestSet(t, []uint64{1, 1, 1})
	rs.Close()
	for i, f := range fakes {
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if !closed {
			t.Fatalf("member %d not closed", i)
		}
	}
}
