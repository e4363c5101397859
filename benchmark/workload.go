package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/cover"
	"repro/internal/metrics"
	"repro/internal/postprocess"
	"repro/internal/xrand"
)

// Shape of a run. The driver passes the measured length; the rest is
// fixed so that every run of a workload does the same work.
const (
	numClients      = 2  // never more than the cores of the box this was sized on
	setupRepeats    = 3  // setup_s is the median of this many cold boots
	recoverCycles   = 15 // recover_ms is the median of this many kill/restart cycles
	warmupLength    = time.Second
	writeInterval   = 100 * time.Millisecond // mixed-single's timed no-wait edge batches
	oracleSampling  = 64                     // 1 in this many lookup answers is compared with the export
	coldRecheckRate = 100                    // 1 in this many cold searches is re-issued
	recoverySamples = 256
	replayTail      = 4    // publishes a mutating workload's recovery replays from the WAL
	minQualityNMI   = 0.80 // the current code scores 0.866–0.911 over 43 seeds; see README
)

// class is a client-observed request class.
type class int

const (
	clLookup class = iota
	clBatch
	clSearchHot  // response says cached:true
	clSearchCold // response says cached:false
	clMutate     // wait:true edge batch: mutation until readable
	clAccept     // no-wait edge batch: until acknowledged
	numClasses
)

var classNames = [numClasses]string{"lookup", "batch", "search_hot", "search_cold", "mutate_visible", "accept"}

// runConfig is one benchmark run.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	measure time.Duration
	trace   bool
	smoke   bool
	bin     string // the ocad binary
	runDir  string // scratch for this run: graph, logs, data dirs
	outDir  string // where trace files go
}

// runResult is what a run reports.
type runResult struct {
	attempted int
	failed    int
	problems  []string // correctness violations; any makes the run incorrect
	metrics   map[string]float64
	classes   [numClasses]classSummary
	notes     []string
	flagLines []string
}

type classSummary struct {
	n                  int
	p50, p90, p95, p99 float64
	mean               float64
	tail               float64 // the highest percentile with ten samples beyond it
	tailPercentile     float64
}

func (r *runResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// oracle is the membership derived from /v1/cover/export at start: for
// every node, the communities its owning shard serves it in.
type oracle map[int32][]communityRef

// run is the shared state of one workload run.
type run struct {
	cfg    runConfig
	in     *input
	c      *cluster
	res    *runResult
	oracle oracle // nil on mutating workloads
	// initGen is each shard's generation at start (index 0 alone on the
	// single topology).
	initGen   []uint64
	baseEdges int64
	muts      *mutationStream
	tracer    *tracer
}

// clientRun is one closed-loop client's state; only its own goroutine
// touches it until the phase is over.
type clientRun struct {
	idx       int
	r         *run
	api       *apiClient
	gen       opGen
	lat       [numClasses]latencies
	attempted int
	failed    int
	problems  []string
	serial    int
	// Generation monotonicity: per shard on the cluster, element 0 on
	// the single daemon.
	lastGen    []uint64
	ackSum     uint64           // sum of the last wait:true ack's shard generations
	hotHash    map[int32]uint64 // search: first answer seen per hot seed
	pace       time.Duration    // non-zero: an open-loop client sending every pace (mixed-single's writer)
	nextDue    time.Time        // paced client: when the next request is due
	lateness   latencies        // how late those batches were sent
	contains   [2]int           // searches whose result held the seed / all searches
	stamp      []int            // per node: the serial of the last search answer that listed it
	spans      []clientSpan     // traced pass only
	traceAfter time.Time        // traced pass: record client spans from here on (zero: never)
	fastHalf   [2]latencies     // traced pass: the fast class before / from traceAfter
	lr         lookupResp       // decode scratch
	br         batchResp
	sr         searchResp
	er         edgesResp
}

func (cr *clientRun) problem(format string, args ...any) {
	if len(cr.problems) < 10 {
		cr.problems = append(cr.problems, fmt.Sprintf("client %d: ", cr.idx)+fmt.Sprintf(format, args...))
	}
}

// readOnly reports whether the workload never mutates, so generations
// stay constant and answers can be compared with the start-of-run
// export.
func (r *run) readOnly() bool {
	return r.cfg.spec.Name == "lookup" || r.cfg.spec.Name == "search"
}

// shardOfAnswer is which initGen/lastGen slot a lookup answer belongs to.
func shardOfAnswer(shards []shardGen) int {
	if len(shards) == 0 {
		return 0
	}
	return shards[0].Shard
}

// checkGeneration applies the workload's generation rule to an answer:
// constant on read-only workloads, monotone per client elsewhere.
func (cr *clientRun) checkGeneration(slot int, gen uint64, what string) {
	if slot >= len(cr.lastGen) {
		cr.problem("%s: answer names shard %d of %d", what, slot, len(cr.lastGen))
		return
	}
	if cr.r.readOnly() {
		if gen != cr.r.initGen[slot] {
			cr.problem("%s: generation %d on a read-only workload (started at %d)", what, gen, cr.r.initGen[slot])
		}
		return
	}
	if gen < cr.lastGen[slot] {
		cr.problem("%s: generation went backwards %d → %d", what, cr.lastGen[slot], gen)
	}
	cr.lastGen[slot] = gen
}

// sameRefs compares two lookup answers as sets of (shard, id, size).
func sameRefs(a, b []communityRef) bool {
	if len(a) != len(b) {
		return false
	}
	sizes := make(map[[2]int32]int, len(b))
	for _, r := range b {
		sizes[r.key()] = r.Size
	}
	for _, r := range a {
		if size, ok := sizes[r.key()]; !ok || size != r.Size {
			return false
		}
		delete(sizes, r.key())
	}
	return true
}

func (cr *clientRun) checkAgainstOracle(node int32, got []communityRef) {
	if cr.r.oracle == nil {
		return
	}
	if !sameRefs(got, cr.r.oracle[node]) {
		cr.problem("lookup %d: answer %v differs from the export's %v", node, got, cr.r.oracle[node])
	}
}

func membersHash(ms []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, m := range ms {
		b[0], b[1], b[2], b[3] = byte(m), byte(m>>8), byte(m>>16), byte(m>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkSearch validates one search answer's shape.
func (cr *clientRun) checkSearch(o op, sr *searchResp) {
	if sr.Seed != o.id {
		cr.problem("search %d: answer is for seed %d", o.id, sr.Seed)
	}
	if sr.Size != len(sr.Members) || sr.Size == 0 {
		cr.problem("search %d: size %d with %d members", o.id, sr.Size, len(sr.Members))
	}
	if math.IsNaN(sr.Fitness) || math.IsInf(sr.Fitness, 0) {
		cr.problem("search %d: fitness %v", o.id, sr.Fitness)
	}
	n := int32(cr.r.in.n())
	hasSeed := false
	if cr.stamp == nil {
		cr.stamp = make([]int, n)
	}
	for _, m := range sr.Members {
		// Distinct node ids in range; the cluster translates shard-local
		// ids back to global ones, so the order is not ascending.
		if m < 0 || m >= n || cr.stamp[m] == cr.serial {
			cr.problem("search %d: member %d out of range or repeated", o.id, m)
			break
		}
		cr.stamp[m] = cr.serial
		hasSeed = hasSeed || m == o.id
	}
	// The greedy search may drop its own seed as the worst member; that
	// is the algorithm's behaviour, so it is counted, not failed.
	cr.contains[1]++
	if hasSeed {
		cr.contains[0]++
	}
}

// exec issues one op and validates the answer. It returns the class the
// latency belongs to, when the op's own response had arrived, and
// whether the operation succeeded. The arrival time is taken before the
// answer is decoded and before any follow-up request a check makes, so
// none of the harness's checking falls inside a reported latency.
func (cr *clientRun) exec(o op) (cl class, done time.Time, ok bool) {
	cr.attempted++
	cr.serial++
	switch o.kind {
	case opLookup:
		err := cr.api.lookup(o.id, &cr.lr)
		done = cr.api.received
		if err != nil {
			cr.problem("%v", err)
			return clLookup, done, false
		}
		if cr.lr.Node != o.id || cr.lr.Count != len(cr.lr.Communities) {
			cr.problem("lookup %d: answer for node %d, count %d with %d communities", o.id, cr.lr.Node, cr.lr.Count, len(cr.lr.Communities))
		}
		cr.checkGeneration(shardOfAnswer(cr.lr.Shards), cr.lr.Generation, "lookup")
		if cr.serial%oracleSampling == 0 {
			cr.checkAgainstOracle(o.id, cr.lr.Communities)
		}
		return clLookup, done, true
	case opBatch:
		err := cr.api.batch(o.ids, &cr.br)
		done = cr.api.received
		if err != nil {
			cr.problem("%v", err)
			return clBatch, done, false
		}
		if cr.br.Count != len(o.ids) || len(cr.br.Results) != len(o.ids) {
			cr.problem("batch: %d results for %d ids", len(cr.br.Results), len(o.ids))
			return clBatch, done, true
		}
		for i, res := range cr.br.Results {
			if res.Node != o.ids[i] || res.Error != "" {
				cr.problem("batch: result %d is node %d (error %q), asked %d", i, res.Node, res.Error, o.ids[i])
				break
			}
			if cr.serial%oracleSampling == 0 {
				cr.checkAgainstOracle(res.Node, res.Communities)
			}
		}
		return clBatch, done, true
	case opSearchHot, opSearchCold, opSearchZipf:
		err := cr.api.search(o.id, o.rngSeed, &cr.sr)
		done = cr.api.received
		if err != nil {
			cr.problem("%v", err)
			return clSearchCold, done, false
		}
		cr.checkSearch(o, &cr.sr)
		cl := clSearchCold
		if cr.sr.Cached {
			cl = clSearchHot
		}
		if cr.r.cfg.spec.Name == "mixed-single" {
			cr.checkGeneration(0, cr.sr.Generation, "search")
		}
		if cr.r.cfg.spec.Name != "search" {
			return cl, done, true
		}
		h := membersHash(cr.sr.Members)
		if o.kind == opSearchHot {
			if first, seen := cr.hotHash[o.id]; seen && first != h {
				cr.problem("search %d: hot answers differ", o.id)
			}
			cr.hotHash[o.id] = h
		} else if cr.serial%coldRecheckRate == 0 {
			// Same rng_seed, same generation: the answer must repeat.
			cr.attempted++
			if err := cr.api.search(o.id, o.rngSeed, &cr.sr); err != nil {
				cr.problem("%v", err)
				cr.failed++
			} else if membersHash(cr.sr.Members) != h {
				cr.problem("search %d: rng_seed %d gave two different answers", o.id, o.rngSeed)
			}
		}
		return cl, done, true
	case opMutate:
		cl := clAccept
		if o.wait {
			cl = clMutate
		}
		err := cr.api.edges(o.add, o.remove, o.wait, &cr.er)
		done = cr.api.received
		if err != nil {
			cr.problem("%v", err)
			return cl, done, false
		}
		if cr.er.Queued != len(o.add)+len(o.remove) {
			cr.problem("edges: queued %d of %d operations", cr.er.Queued, len(o.add)+len(o.remove))
		}
		if o.wait {
			cr.checkAck(o)
		} else if cr.r.c.single {
			cr.checkGeneration(0, cr.er.Generation, "edges")
		}
		return cl, done, true
	}
	cr.problem("op of unknown kind %d", o.kind)
	return clLookup, time.Now(), false
}

// checkAck validates a wait:true acknowledgement: applied, generations
// strictly advanced, and a lookup issued afterwards sees at least the
// acknowledged generation. The lookup is part of the check, not of the
// timed operation: exec took the mutation's arrival time before it.
func (cr *clientRun) checkAck(o op) {
	er := &cr.er
	if !er.Applied {
		cr.problem("edges wait:true: applied=false")
	}
	sum := er.Generation
	if len(er.Shards) > 0 {
		sum = 0
		for _, s := range er.Shards {
			sum += s.Generation
		}
	}
	if sum <= cr.ackSum {
		cr.problem("edges wait:true: generations did not advance (%d → %d)", cr.ackSum, sum)
	}
	cr.ackSum = sum
	node := o.add[0][0]
	cr.attempted++
	if err := cr.api.lookup(node, &cr.lr); err != nil {
		cr.problem("%v", err)
		cr.failed++
		return
	}
	want := er.Generation
	if slot := shardOfAnswer(cr.lr.Shards); len(er.Shards) > slot {
		want = er.Shards[slot].Generation
	}
	if cr.lr.Generation < want {
		cr.problem("lookup %d after wait:true ack of generation %d answered generation %d", node, want, cr.lr.Generation)
	}
}

// loop drives the client until end; operations that start at or after
// measureStart and complete by end are the measured ones. A latency
// runs from when the request was sent (closed loop) or due (paced) to
// when its response had arrived; generating the op comes before it,
// decoding and checking after. A paced client sends on its schedule and
// times each request from when it was due, so a stall counts against
// every request it delays.
func (cr *clientRun) loop(measureStart, end time.Time) {
	if cr.pace > 0 {
		cr.nextDue = time.Now().Add(cr.pace)
	}
	for {
		due := time.Now()
		if cr.pace > 0 {
			due = cr.nextDue
			cr.nextDue = due.Add(cr.pace)
		}
		// Every generated op is sent: the mutation stream's state must
		// match what the daemon was given.
		if !due.Before(end) {
			return
		}
		o := cr.gen.next()
		if cr.pace > 0 {
			time.Sleep(time.Until(due))
		}
		start := time.Now()
		if cr.pace == 0 {
			due = start
		}
		cl, done, ok := cr.exec(o)
		if !ok {
			cr.failed++
			continue
		}
		if due.Before(measureStart) || done.After(end) {
			continue
		}
		cr.lat[cl].add(float64(done.Sub(due)) / float64(time.Millisecond))
		if o.kind == opMutate && !o.wait {
			cr.lateness.add(float64(start.Sub(due)) / float64(time.Millisecond))
		}
		if cr.traceAfter.IsZero() {
			continue
		}
		if cl == cr.r.cfg.spec.FastClass {
			half := 0
			if !due.Before(cr.traceAfter) {
				half = 1
			}
			cr.fastHalf[half].add(float64(done.Sub(due)) / float64(time.Millisecond))
		}
		if !due.Before(cr.traceAfter) {
			cr.spans = append(cr.spans, clientSpan{op: cr.serial, class: cl, start: due, end: done})
		}
	}
}

// fetchExport reads /v1/cover/export: the communities with global
// member ids, and the per-shard generations it was taken at.
func (r *run) fetchExport() (comms []exportCommunity, gens []uint64, edges int64, err error) {
	resp, err := r.c.ctl.Get("http://" + r.c.front.addr + "/v1/cover/export")
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, nil, 0, fmt.Errorf("GET /v1/cover/export: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var meta struct {
		Generation uint64     `json:"generation"`
		Edges      int64      `json:"edges"`
		Shards     []shardGen `json:"shards"`
	}
	first := true
	for sc.Scan() {
		if first {
			if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
				return nil, nil, 0, fmt.Errorf("export meta line: %w", err)
			}
			first = false
			continue
		}
		var c exportCommunity
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return nil, nil, 0, fmt.Errorf("export community line: %w", err)
		}
		comms = append(comms, c)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, 0, err
	}
	gens = []uint64{meta.Generation}
	if len(meta.Shards) > 0 {
		gens = make([]uint64, len(meta.Shards))
		for _, s := range meta.Shards {
			gens[s.Shard] = s.Generation
		}
	}
	return comms, gens, meta.Edges, nil
}

type exportCommunity struct {
	ID      int32   `json:"id"`
	Shard   *int    `json:"shard,omitempty"`
	Size    int     `json:"size"`
	Members []int32 `json:"members"`
}

// buildOracle derives per-node membership from the export. On the
// cluster a node is answered by its owning shard (node mod K at epoch
// 0), so only that shard's communities count for it.
func buildOracle(comms []exportCommunity, single bool) oracle {
	o := make(oracle)
	for _, c := range comms {
		ref := communityRef{ID: c.ID, Shard: c.Shard, Size: c.Size}
		for _, v := range c.Members {
			if !single && c.Shard != nil && int(v)%shardCount != *c.Shard {
				continue
			}
			o[v] = append(o[v], ref)
		}
	}
	return o
}

// qualityNMI scores the served cover against the planted truth by
// overlapping NMI. The per-shard variants of a community are merged
// first, as shard.MergeCovers does for the deployment's analysis view.
func qualityNMI(comms []exportCommunity, in *input) float64 {
	cs := make([]cover.Community, len(comms))
	for i, c := range comms {
		cs[i] = cover.NewCommunity(c.Members)
	}
	found := postprocess.Merge(cover.NewCover(cs), postprocess.DefaultMergeThreshold)
	return metrics.NMI(in.bench.Communities, found, in.n())
}

// runWorkload performs one whole run: generate, boot (several times),
// verify quality, drive the clients, recover, tear down.
func runWorkload(cfg runConfig, reg *registry) (*runResult, error) {
	res := &runResult{metrics: make(map[string]float64)}
	in, err := newInput(cfg.seed, cfg.smoke)
	if err != nil {
		return nil, err
	}
	graphPath := filepath.Join(cfg.runDir, "graph.txt")
	if err := in.writeEdgeList(graphPath); err != nil {
		return nil, err
	}
	single := cfg.spec.Name == "mixed-single"

	// Set-up, repeated: every boot is a cold one into a fresh directory;
	// the last cluster is the one the workload runs on.
	var c *cluster
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.stop()
			if err := os.RemoveAll(filepath.Join(cfg.runDir, fmt.Sprintf("boot%d", i-1))); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		c, d, err = bootCluster(reg, cfg.bin, graphPath, filepath.Join(cfg.runDir, fmt.Sprintf("boot%d", i)), single)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer c.stop()
	res.flagLines = c.flagLines()
	res.metrics["setup_s"] = median(setups)

	r := &run{cfg: cfg, in: in, c: c, res: res, baseEdges: in.bench.Graph.M()}
	comms, gens, edges, err := r.fetchExport()
	if err != nil {
		return nil, err
	}
	r.initGen = gens
	if edges != r.baseEdges {
		res.problem("export reports %d edges, the input has %d", edges, r.baseEdges)
	}
	nmi := qualityNMI(comms, in)
	res.metrics["quality_nmi"] = nmi
	if nmi < minQualityNMI {
		res.problem("quality_nmi %.4f below %.2f", nmi, minQualityNMI)
	}
	if r.readOnly() {
		r.oracle = buildOracle(comms, single)
	}
	perBatch := 8
	if single {
		perBatch = 4
	}
	r.muts = newMutationStream(in, perBatch)
	if cfg.trace {
		r.tracer = newTracer()
	}

	if err := r.drive(); err != nil {
		return nil, err
	}
	if err := r.recoverPhase(); err != nil {
		return nil, err
	}
	if err := c.checkDaemons(); err != nil {
		res.problem("%v", err)
	}
	if cfg.trace {
		c.stop() // the probes want the cores to themselves
		if err := r.probes(); err != nil {
			return nil, err
		}
		if err := r.tracer.write(filepath.Join(cfg.outDir, "trace-"+cfg.spec.Name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// drive runs the warm-up and the measured phase and turns the clients'
// records into metrics.
func (r *run) drive() error {
	cfg, res := r.cfg, r.res
	clients := make([]*clientRun, numClients)
	if cfg.spec.Name == "mixed-single" {
		// The timed no-wait edge batches get a connection of their own: ten
		// requests a second, sent on schedule whatever the readers do.
		clients = append(clients, nil)
	}
	for i := range clients {
		clients[i] = &clientRun{
			idx: i, r: r,
			api:     newAPIClient(r.c.front.addr),
			gen:     clientGen(cfg.spec.Name, r.in, i, r.muts),
			lastGen: append([]uint64(nil), r.initGen...),
			hotHash: make(map[int32]uint64),
		}
		if i >= numClients {
			clients[i].pace = writeInterval
		}
		defer clients[i].api.close()
	}
	phase := func(measureStart, end time.Time) {
		var wg sync.WaitGroup
		for _, cr := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cr.loop(measureStart, end)
			}()
		}
		wg.Wait()
	}
	// Warm-up: same traffic, nothing recorded (its window never opens).
	warmEnd := time.Now().Add(warmupLength)
	phase(warmEnd.Add(time.Hour), warmEnd)

	var live *liveScrape
	if cfg.trace {
		var err error
		if live, err = r.beginLiveScrape(); err != nil {
			return err
		}
	}
	measureStart := time.Now()
	if cfg.trace {
		// Client spans are recorded in the second half only; the first
		// half is the untraced reference for trace.overhead_ratio.
		for _, cr := range clients {
			cr.traceAfter = measureStart.Add(cfg.measure / 2)
		}
	}
	phase(measureStart, measureStart.Add(cfg.measure))

	_, _, rss, err := r.c.resources()
	if err != nil {
		return err
	}
	res.metrics["rss_mb"] = rss
	if cfg.trace {
		if err := live.finish(clients); err != nil {
			return err
		}
	}

	// Merge the clients.
	var all [numClasses]latencies
	ops := 0
	var lateness latencies
	var contains [2]int
	for _, cr := range clients {
		res.attempted += cr.attempted
		res.failed += cr.failed
		for _, p := range cr.problems {
			res.problem("%s", p)
		}
		for cl := range all {
			all[cl].merge(&cr.lat[cl])
			ops += cr.lat[cl].n()
		}
		lateness.merge(&cr.lateness)
		contains[0] += cr.contains[0]
		contains[1] += cr.contains[1]
	}
	if cfg.spec.Name == "search" {
		for seed, h := range clients[0].hotHash {
			if h1, ok := clients[1].hotHash[seed]; ok && h1 != h {
				res.problem("search %d: the two clients saw different hot answers", seed)
			}
		}
	}
	for cl := range all {
		n := all[cl].n()
		if n == 0 {
			continue
		}
		tp := tailPercentile(n)
		res.classes[cl] = classSummary{n: n, p50: all[cl].p(50), p90: all[cl].p(90), p95: all[cl].p(95), p99: all[cl].p(99),
			mean: mean(all[cl].ms), tail: all[cl].p(tp), tailPercentile: tp}
	}
	fast, slow := cfg.spec.FastClass, cfg.spec.SlowClass
	for _, need := range []class{fast, slow} {
		if all[need].n() == 0 {
			return fmt.Errorf("no %s samples in the measured phase", classNames[need])
		}
	}
	res.metrics["ops_per_s"] = float64(ops) / cfg.measure.Seconds()
	res.metrics["fast_p50_ms"] = all[fast].p(50)
	res.metrics["fast_p99_ms"] = all[fast].p(99)
	res.metrics["slow_p50_ms"] = all[slow].p(50)
	res.metrics["slow_tail_ms"] = all[slow].p(cfg.spec.SlowTail)
	if b := beyond(all[slow].n(), cfg.spec.SlowTail); b < 10 {
		res.notes = append(res.notes, fmt.Sprintf("slow_tail_ms (p%g) has only %d samples beyond it", cfg.spec.SlowTail, b))
	}
	if lateness.n() > 0 {
		res.notes = append(res.notes, fmt.Sprintf("timed writes: %d sent, lateness p50 %.3f ms, max %.3f ms",
			lateness.n(), lateness.p(50), lateness.p(100)))
	}
	if contains[1] > 0 {
		res.notes = append(res.notes, fmt.Sprintf("searches whose result kept the seed: %d of %d", contains[0], contains[1]))
	}
	if r.tracer != nil {
		for _, cr := range clients {
			r.tracer.addClientSpans(cr.idx, cr.spans)
		}
	}
	return r.checkEdgeCount(clients[0])
}

// checkEdgeCount flushes outstanding mutations with one more wait:true
// batch and compares the served edge count with input + live adds.
func (r *run) checkEdgeCount(cr *clientRun) error {
	if r.readOnly() {
		return nil
	}
	// The client's records are merged already: count only what this adds.
	attempted, failed, problems := cr.attempted, cr.failed, len(cr.problems)
	add, remove := r.muts.nextBatch()
	if _, _, ok := cr.exec(op{kind: opMutate, add: add, remove: remove, wait: true}); !ok {
		cr.failed++
	}
	r.res.attempted += cr.attempted - attempted
	r.res.failed += cr.failed - failed
	for _, p := range cr.problems[problems:] {
		r.res.problem("%s", p)
	}
	h, err := r.c.frontHealth()
	if err != nil {
		return err
	}
	if want := r.baseEdges + int64(r.muts.liveAdds()); h.Edges != want {
		r.res.problem("after a flush the daemon serves %d edges, input + live adds is %d", h.Edges, want)
	}
	return nil
}

// victimState is what the recovery phase compares across a restart.
type victimState struct {
	gen     uint64
	edges   int64
	lookups []lookupResp
	// members holds, per sampled lookup, the member-set hash of every
	// community the answer names (resolved through an export taken at the
	// same generation), sorted: what the answer means, whatever ids the
	// served cover gives its communities.
	members [][]uint64
}

// memberSetHash fingerprints a community by its members in any order.
func memberSetHash(ms []int32) uint64 {
	sorted := append([]int32(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return membersHash(sorted)
}

// resolveMembers turns lookup answers into sorted member-set hashes
// using the export's communities. An answer naming a community the
// export lacks, or with another size, is an error.
func resolveMembers(lookups []lookupResp, comms []exportCommunity) ([][]uint64, error) {
	type entry struct {
		hash uint64
		size int
	}
	byRef := make(map[[2]int32]entry, len(comms))
	for _, c := range comms {
		byRef[communityRef{ID: c.ID, Shard: c.Shard}.key()] = entry{memberSetHash(c.Members), len(c.Members)}
	}
	out := make([][]uint64, len(lookups))
	for i, l := range lookups {
		hs := make([]uint64, len(l.Communities))
		for j, ref := range l.Communities {
			e, ok := byRef[ref.key()]
			if !ok || e.size != ref.Size {
				return nil, fmt.Errorf("lookup %d names community %v, the export has %d members under that id (present: %v)", l.Node, ref, e.size, ok)
			}
			hs[j] = e.hash
		}
		sort.Slice(hs, func(a, b int) bool { return hs[a] < hs[b] })
		out[i] = hs
	}
	return out, nil
}

func sameHashes(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cycles is how many kill/restart cycles the recovery phase runs: the
// smoke run checks recovery, it does not measure it.
func (r *run) cycles() int {
	if r.cfg.smoke {
		return 3
	}
	return recoverCycles
}

func (r *run) victimGenEdges() (uint64, int64, error) {
	if r.c.single {
		h, err := r.c.frontHealth()
		return h.Generation, h.Edges, err
	}
	h, err := r.c.shardHealth(r.c.shards[0])
	return h.Snapshot.Generation, h.Snapshot.Edges, err
}

// recoverPhase kills the data-bearing process and restarts it with the
// same flags, recoverCycles times, timing exec → serving the pre-kill
// generation, and checks that generation, edge count and sampled
// lookups survive: every sampled node must be in communities of exactly
// the same members before the kill and after the restart.
//
// Mutating workloads first write wait:true batches until the victim is
// exactly replayTail publishes past its newest sealed segment, so every
// recovery replays a WAL tail of that length, and until that segment is
// one sealed after the measured phase, so the tail holds only publishes
// of one batch each, written one at a time. A daemon seals on its own
// count of publishes since it started (and once when it starts), so the
// harness reads the newest segment from the victim's data directory;
// the victim's log must then report a replay of that length.
func (r *run) recoverPhase() error {
	api := newAPIClient(r.c.front.addr)
	defer api.close()
	victim := r.c.dataProc()
	rng := xrand.New(r.cfg.seed, streamSample)
	sample := make([]int32, recoverySamples)
	for i := range sample {
		v := int32(rng.Intn(r.in.n()))
		if !r.c.single {
			v -= v % shardCount // a node shard 0 owns
		}
		sample[i] = v
	}
	// The system is quiescent here (every write so far was wait:true or
	// flushed), so the lookups and the export see one generation.
	snapshotState := func() (victimState, error) {
		gen, edges, err := r.victimGenEdges()
		if err != nil {
			return victimState{}, err
		}
		st := victimState{gen: gen, edges: edges, lookups: make([]lookupResp, len(sample))}
		for i, v := range sample {
			r.res.attempted++
			if err := api.lookup(v, &st.lookups[i]); err != nil {
				r.res.failed++
				return st, err
			}
		}
		comms, gens, _, err := r.fetchExport()
		if err != nil {
			return st, err
		}
		if gens[0] != gen {
			return st, fmt.Errorf("recovery: export taken at generation %d, %s serves %d", gens[0], victim.name, gen)
		}
		st.members, err = resolveMembers(st.lookups, comms)
		return st, err
	}

	// The generation the measured phase's last write was flushed at: only
	// segments from here on hold no publish made under concurrent writes.
	quiescentGen, _, err := r.victimGenEdges()
	if err != nil {
		return err
	}
	var times []float64
	var post victimState
	for cycle := 0; cycle < r.cycles(); cycle++ {
		if !r.readOnly() {
			for tries := 0; ; tries++ {
				gen, _, err := r.victimGenEdges()
				if err != nil {
					return err
				}
				seg, err := newestSegment(r.c.victimDataDir())
				if err != nil {
					return err
				}
				if seg >= quiescentGen && gen == seg+replayTail {
					break
				}
				if tries > 64 {
					return fmt.Errorf("recovery: generation %d never came %d past a segment sealed at or after %d (newest segment %d)", gen, replayTail, quiescentGen, seg)
				}
				add, remove := r.muts.nextBatch()
				var er edgesResp
				r.res.attempted++
				if err := api.edges(add, remove, true, &er); err != nil {
					r.res.failed++
					return err
				}
			}
		}
		// Nothing writes between a read-only workload's cycles: what the
		// last restart served is what this kill interrupts.
		pre := post
		if !r.readOnly() || cycle == 0 {
			if pre, err = snapshotState(); err != nil {
				return err
			}
		}
		victim.kill()
		api.close() // the single daemon's connection died with it
		if err := victim.start(r.c.bin); err != nil {
			return err
		}
		deadline := time.Now().Add(readyTimeout)
		for {
			gen, _, err := r.victimGenEdges()
			if err == nil && gen == pre.gen {
				break
			}
			if victim.exited() {
				return fmt.Errorf("%s exited during recovery (see %s)", victim.name, victim.logPath())
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s did not recover generation %d within %v (at %d, err %v)", victim.name, pre.gen, readyTimeout, gen, err)
			}
			time.Sleep(time.Millisecond)
		}
		times = append(times, float64(time.Since(victim.started))/float64(time.Millisecond))
		if err := victim.waitAddr(deadline); err != nil {
			return err
		}
		if err := r.c.waitFrontHealthy(deadline, pre.gen); err != nil {
			return err
		}
		if post, err = snapshotState(); err != nil {
			return err
		}
		if post.gen != pre.gen || post.edges != pre.edges {
			r.res.problem("recovery %d: generation/edges %d/%d became %d/%d", cycle, pre.gen, pre.edges, post.gen, post.edges)
		}
		renumbered := 0
		for i := range sample {
			a, b := pre.lookups[i], post.lookups[i]
			if a.Generation != b.Generation || !sameHashes(pre.members[i], post.members[i]) {
				r.res.problem("recovery %d: lookup %d answered %+v before the kill, %+v after: not the same communities by members", cycle, sample[i], a, b)
				break
			}
			if !sameRefs(a.Communities, b.Communities) {
				renumbered++
			}
		}
		if renumbered > 0 {
			// Community ids are positions in the served cover, and a
			// recovered cover may order equal-sized communities differently.
			// The member sets were just compared and are equal.
			r.res.notes = append(r.res.notes, fmt.Sprintf("recovery %d: %d of %d sampled lookups name communities of the same members under other ids", cycle, renumbered, len(sample)))
		}
	}
	r.res.metrics["recover_ms"] = median(times)
	r.res.notes = append(r.res.notes, fmt.Sprintf("recovery cycles: %.1f ms", times))
	return r.checkReplays(victim)
}

var replayLine = regexp.MustCompile(`recovered generation \d+ from \S+ \(([a-z+]+), (\d+) batches replayed\)`)

// checkReplays reads from the victim's log what each restart recovered
// from: a mutating workload's must each replay replayTail batches past a
// segment, a read-only workload's load a segment alone.
func (r *run) checkReplays(victim *proc) error {
	log, err := os.ReadFile(victim.logPath())
	if err != nil {
		return err
	}
	want := fmt.Sprintf("segment+wal, %d", replayTail)
	if r.readOnly() {
		want = "segment, 0"
	}
	lines := replayLine.FindAllStringSubmatch(string(log), -1)
	if len(lines) != r.cycles() {
		r.res.problem("recovery: %s logged %d recoveries in %d cycles", victim.name, len(lines), r.cycles())
	}
	for i, m := range lines {
		if got := m[1] + ", " + m[2]; got != want {
			r.res.problem("recovery %d: %s recovered from (%s batches replayed), want (%s)", i, victim.name, got, want)
		}
	}
	return nil
}
