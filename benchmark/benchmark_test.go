package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/persist"
)

// These tests spawn no process and touch no socket: they cover the
// harness's own arithmetic and the determinism of its inputs.

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got != 50 && beyond(tc.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves %d samples beyond", tc.n, got, beyond(tc.n, got))
		}
	}
}

func smokeInput(t *testing.T, seed int64) *input {
	t.Helper()
	in, err := newInput(seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// workloadHash fingerprints every client's stream of a workload.
func workloadHash(in *input, workload string) [numClients]uint64 {
	var h [numClients]uint64
	muts := newMutationStream(in, 8)
	for c := range h {
		h[c] = streamHash(clientGen(workload, in, c, muts), 2000)
	}
	return h
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b, other := smokeInput(t, 7), smokeInput(t, 7), smokeInput(t, 8)
	for _, w := range workloads {
		ha, hb, ho := workloadHash(a, w.Name), workloadHash(b, w.Name), workloadHash(other, w.Name)
		if ha != hb {
			t.Errorf("%s: the same seed gave different streams: %v vs %v", w.Name, ha, hb)
		}
		if ha == ho {
			t.Errorf("%s: seeds 7 and 8 gave the same streams", w.Name)
		}
		if ha[0] == ha[1] {
			t.Errorf("%s: both clients got the same stream", w.Name)
		}
	}
}

func TestMutationStreamIsStationary(t *testing.T) {
	in := smokeInput(t, 3)
	g := in.bench.Graph
	const perBatch = 8
	m := newMutationStream(in, perBatch)
	live := make(map[[2]int32]int)
	sameCommunity := func(u, v int32) bool {
		for _, cu := range in.bench.Memberships[u] {
			for _, cv := range in.bench.Memberships[v] {
				if cu == cv {
					return true
				}
			}
		}
		return false
	}
	var history [][][2]int32
	for i := 0; i < 5*mutationWindow; i++ {
		add, remove := m.nextBatch()
		if len(add) != perBatch {
			t.Fatalf("batch %d adds %d edges, want %d", i, len(add), perBatch)
		}
		for _, e := range remove {
			if live[e] != 1 {
				t.Fatalf("batch %d removes %v, which the stream does not hold (count %d)", i, e, live[e])
			}
			delete(live, e)
		}
		for _, e := range add {
			if g.HasEdge(e[0], e[1]) || live[e] != 0 || e[0] >= e[1] {
				t.Fatalf("batch %d adds %v: an input edge, a live edge or not canonical", i, e)
			}
			if !sameCommunity(e[0], e[1]) {
				t.Fatalf("batch %d adds %v across planted communities", i, e)
			}
			live[e]++
		}
		history = append(history, add)
		// Removes are exactly what the batch 16 earlier added.
		if i >= mutationWindow {
			want := history[i-mutationWindow]
			if len(remove) != len(want) {
				t.Fatalf("batch %d removes %d edges, batch %d added %d", i, len(remove), i-mutationWindow, len(want))
			}
			for j := range want {
				if remove[j] != want[j] {
					t.Fatalf("batch %d removes %v, batch %d added %v", i, remove[j], i-mutationWindow, want[j])
				}
			}
		} else if len(remove) != 0 {
			t.Fatalf("batch %d removes edges before the window filled", i)
		}
		// The graph never drifts further than one window of adds, and
		// every 16 batches the set of stream edges has fully turned over.
		if wantLive := min(i+1, mutationWindow) * perBatch; len(live) != wantLive || m.liveAdds() != wantLive {
			t.Fatalf("after batch %d the stream holds %d edges (reports %d), want %d", i, len(live), m.liveAdds(), wantLive)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 100, Dur: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 110, Dur: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 130, Dur: 30}, // overlaps a by 10
		{ID: 4, Parent: 3, Name: "leaf", Start: 135, Dur: 5},
		{ID: 5, Name: "alone", Start: 300, Dur: 7},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"parent": 50, "a": 30, "b": 25, "leaf": 5, "alone": 7} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want [%g]", name, got, want)
		}
	}
	if s := childrenWithinParents(spans); s != nil {
		t.Errorf("span %d reported outside its parent", s.ID)
	}
	spans = append(spans, span{ID: 6, Parent: 5, Name: "escapes", Start: 305, Dur: 10})
	if s := childrenWithinParents(spans); s == nil || s.ID != 6 {
		t.Errorf("childrenWithinParents = %v, want span 6", s)
	}
}

func TestReplayedChildrenStayInsideTheParent(t *testing.T) {
	tr := newTracer()
	id := tr.begin("parent", 0, 1)
	time.Sleep(time.Millisecond)
	parentDur := tr.end(id)
	tr.child(id, "first", parentDur/4)
	tr.child(id, "second", parentDur/4)
	tr.child(id, "too long", 10*parentDur) // clipped to the parent's end
	if s := childrenWithinParents(tr.spans); s != nil {
		t.Fatalf("span %s leaves its parent", s.Name)
	}
	if first, second := tr.spans[1], tr.spans[2]; second.Start != first.Start+first.Dur {
		t.Errorf("second child starts at %d, first ends at %d", second.Start, first.Start+first.Dur)
	}
	if got := selfTimes(tr.spans)["parent"][0]; got != 0 {
		t.Errorf("parent self time %g after children covering it fully, want 0", got)
	}
}

func loadTestDeclaration(t *testing.T) *declaration {
	t.Helper()
	d, err := loadDeclaration("../" + declarationFile)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json is the only declaration; this checks it against the
// driver's schema and against the workloads the harness implements.
func TestBenchmarkJSONSchema(t *testing.T) {
	d := loadTestDeclaration(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, outside 1..60", d.RunSeconds)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end_to_end metrics, outside 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics, outside 1..128", n)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), d.EndToEnd...), d.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%q (%q) is not a valid name and unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("%q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		hasSetup = hasSetup || m == metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	for _, m := range d.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", m.Name)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness implements %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := d.Workloads[i]
		if got.Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json names it %q, the harness %q", i, got.Name, w.Name)
		}
		if got.Why == "" || len(got.Why) > 200 || !nameRE.MatchString(got.Name) || seen[got.Name] {
			t.Errorf("workload %q: name or why outside the contract's limits", got.Name)
		}
		seen[got.Name] = true
	}
}

// Every metric a run emits is declared, and every declared metric is
// emitted: buildOutput refuses a result that lacks a declared metric or
// carries an undeclared one.
func TestOutputCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	d := loadTestDeclaration(t)
	for _, trace := range []bool{false, true} {
		res := &runResult{metrics: make(map[string]float64)}
		for _, m := range append(append([]metricSpec(nil), d.EndToEnd...), d.PerLayer...) {
			res.metrics[m.Name] = 1.5
		}
		o, err := buildOutput(d, res, trace)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Metrics) != len(d.metrics(trace)) {
			t.Errorf("trace=%v: %d metrics in the output, %d declared", trace, len(o.Metrics), len(d.metrics(trace)))
		}
		res.metrics["undeclared.extra"] = 1
		if _, err := buildOutput(d, res, trace); err == nil {
			t.Errorf("trace=%v: a result with an undeclared metric was accepted", trace)
		}
		delete(res.metrics, "undeclared.extra")
		delete(res.metrics, d.metrics(trace)[0].Name)
		if _, err := buildOutput(d, res, trace); err == nil {
			t.Errorf("trace=%v: a result without %s was accepted", trace, d.metrics(trace)[0].Name)
		}
	}
}

// The recovery check compares lookups by the members of the communities
// they name: renumbered ids pass, another community of the same size
// does not.
func TestRecoveryComparesCommunitiesByMembers(t *testing.T) {
	lookup := func(ids ...int32) []lookupResp {
		l := lookupResp{Node: 1}
		for _, id := range ids {
			l.Communities = append(l.Communities, communityRef{ID: id, Size: 3})
		}
		return []lookupResp{l}
	}
	before := []exportCommunity{{ID: 0, Members: []int32{1, 2, 3}}, {ID: 1, Members: []int32{1, 4, 5}}, {ID: 2, Members: []int32{7, 8, 9}}}
	renumbered := []exportCommunity{{ID: 2, Members: []int32{3, 2, 1}}, {ID: 0, Members: []int32{5, 1, 4}}, {ID: 1, Members: []int32{7, 8, 9}}}
	moved := []exportCommunity{{ID: 0, Members: []int32{1, 2, 3}}, {ID: 1, Members: []int32{1, 4, 6}}, {ID: 2, Members: []int32{7, 8, 9}}}
	pre, err := resolveMembers(lookup(0, 1), before)
	if err != nil {
		t.Fatal(err)
	}
	same, err := resolveMembers(lookup(0, 2), renumbered)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHashes(pre[0], same[0]) {
		t.Error("the same communities under other ids were reported as different")
	}
	other, err := resolveMembers(lookup(0, 1), moved)
	if err != nil {
		t.Fatal(err)
	}
	if sameHashes(pre[0], other[0]) {
		t.Error("a community of the same size with another member was reported as the same")
	}
	if _, err := resolveMembers(lookup(0, 5), before); err == nil {
		t.Error("a lookup naming a community the export lacks was accepted")
	}
}

// The recovery phase steers by the newest sealed segment and verifies
// each restart from the victim's log: both readings must match what
// internal/persist and cmd/ocad write.
func TestNewestSegmentAndReplayLine(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		persist.SegmentName(1), persist.SegmentName(17), persist.SegmentName(9),
		persist.WALName(40), persist.SegmentName(25) + ".tmp", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := newestSegment(dir); err != nil || got != 17 {
		t.Errorf("newestSegment = %d, %v; want 17 (a WAL, a temporary file and a stray name are no segments)", got, err)
	}
	if got, err := newestSegment(t.TempDir()); err != nil || got != 0 {
		t.Errorf("newestSegment of an empty directory = %d, %v; want 0", got, err)
	}

	log := "2026/09/28 17:01:39 recovered generation 52 from d/data (segment+wal, 4 batches replayed)\n" +
		"2026/09/28 17:01:40 shard 0 recovered generation 12 from d/data/shard-0 (segment, 0 batches replayed)\n" +
		"2026/09/28 17:01:40 cover ready: 88 communities in 1.2s\n"
	ms := replayLine.FindAllStringSubmatch(log, -1)
	if len(ms) != 2 || ms[0][1] != "segment+wal" || ms[0][2] != "4" || ms[1][1] != "segment" || ms[1][2] != "0" {
		t.Errorf("replayLine matched %q", ms)
	}
}
