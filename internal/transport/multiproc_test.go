package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/metrics"
	"repro/internal/postprocess"
	"repro/internal/shard"
	"repro/internal/spectral"
)

// ocadBin builds cmd/ocad once per test binary and returns its path.
var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func ocadBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ocad-bin-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "ocad")
		cmd := exec.Command("go", "build", "-o", binPath, "./cmd/ocad")
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build ./cmd/ocad: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// ocadProc is one spawned daemon with captured output.
type ocadProc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
	mu  sync.Mutex
}

func (p *ocadProc) logs() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

func startOcad(t *testing.T, args ...string) *ocadProc {
	t.Helper()
	p := &ocadProc{cmd: exec.Command(ocadBin(t), args...), out: &bytes.Buffer{}}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stdout = pw
	p.cmd.Stderr = pw
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting ocad %v: %v", args, err)
	}
	pw.Close()
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
	})
	return p
}

// waitAddrFile polls until the daemon writes its bound address.
func waitAddrFile(t *testing.T, p *ocadProc, path string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b)
		}
		if p.cmd.ProcessState != nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon never wrote %s; logs:\n%s", path, p.logs())
	return ""
}

// TestMultiProcessCluster is the end-to-end acceptance gate for the
// multi-process deployment: three real `ocad -serve-shard` processes
// plus a real router process over the documented wire protocol must
// (1) pass the LFR equivalence gate — the served cover's NMI vs an
// unsharded cold run ≥ 0.99; (2) serve mutations and lookups with no
// 5xx while rebuilds run; (3) degrade explicitly (partial batch
// results, flagged vector) when a shard process is SIGKILLed;
// (4) recover that shard from its data directory alone on restart — its
// -in file is gone by then — rejoining at the exact pre-kill generation
// and identity with no 5xx from the survivors; and (5) drain gracefully
// on SIGTERM.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and runs multiple OCA builds")
	}
	bench, err := lfr.Generate(lfr.Params{
		N: 250, AvgDeg: 14, MaxDeg: 30, Mu: 0.02,
		MinCom: 25, MaxCom: 45, Seed: 7,
	})
	if err != nil {
		t.Fatalf("lfr.Generate: %v", err)
	}
	g := bench.Graph
	n := g.N()
	c, err := spectral.C(g, spectral.Options{})
	if err != nil {
		t.Fatalf("spectral.C: %v", err)
	}

	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.txt")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(gf, g); err != nil {
		t.Fatal(err)
	}
	gf.Close()

	// Boot the three shard servers, then the router (it waits for them).
	// Every shard persists to a subdirectory of one shared -data-dir so
	// the kill -9 + restart leg below can recover from disk.
	const k = 3
	dataDir := filepath.Join(dir, "data")
	common := []string{"-in", graphPath, "-seed", "11", "-c", fmt.Sprintf("%g", c),
		"-refresh-debounce", "5ms", "-addr", "127.0.0.1:0"}
	shardArgs := func(s int, af string) []string {
		return append(append([]string{}, common...),
			"-shards", fmt.Sprint(k), "-serve-shard", fmt.Sprint(s),
			"-data-dir", dataDir, "-addr-file", af)
	}
	shardProcs := make([]*ocadProc, k)
	shardAddrs := make([]string, k)
	for s := 0; s < k; s++ {
		af := filepath.Join(dir, fmt.Sprintf("shard%d.addr", s))
		shardProcs[s] = startOcad(t, shardArgs(s, af)...)
		shardAddrs[s] = waitAddrFile(t, shardProcs[s], af, 60*time.Second)
	}
	routerAddrFile := filepath.Join(dir, "router.addr")
	router := startOcad(t,
		"-shard-addrs", strings.Join(shardAddrs, ","),
		"-shards", fmt.Sprint(k),
		"-shard-poll-interval", "25ms",
		"-addr", "127.0.0.1:0", "-addr-file", routerAddrFile)
	base := "http://" + waitAddrFile(t, router, routerAddrFile, 60*time.Second)

	// (0) Liveness and global dimensions over the wire.
	var hr struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Edges  int64  `json:"edges"`
		Shards []struct {
			Shard      int    `json:"shard"`
			Generation uint64 `json:"generation"`
		} `json:"shards"`
	}
	if code := getJSON(t, base+"/healthz", &hr); code != http.StatusOK {
		t.Fatalf("healthz = %d; router logs:\n%s", code, router.logs())
	}
	if hr.Status != "ok" || hr.Nodes != n || hr.Edges != g.M() || len(hr.Shards) != k {
		t.Fatalf("healthz: %+v, want ok with %d nodes / %d edges / %d shards", hr, n, g.M(), k)
	}

	// (1) NMI equivalence gate: the exported (merged) cover vs an
	// unsharded cold run over the same graph, same seed and c.
	exported := exportCover(t, base, n)
	cold, err := core.Run(g, core.Options{Seed: 11, C: c})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	merged := postprocess.Merge(exported, postprocess.DefaultMergeThreshold)
	if nmi := metrics.NMI(merged, cold.Cover, n); nmi < 0.99 {
		t.Errorf("NMI(exported, cold) = %.4f, want >= 0.99 (exported %d communities, cold %d)",
			nmi, merged.Len(), cold.Cover.Len())
	}
	if truthNMI := metrics.NMI(merged, bench.Communities, n); truthNMI < 0.6 {
		t.Errorf("exported cover vs planted truth NMI = %.4f, suspiciously low", truthNMI)
	}

	// (2) No 5xx during rebuilds: concurrent readers while mutation
	// batches fan out over the wire and trigger per-shard rebuilds.
	var (
		fiveHundreds atomic.Int64
		requests     atomic.Int64
		stop         = make(chan struct{})
		wg           sync.WaitGroup
	)
	check := func(code int, what string) {
		requests.Add(1)
		if code >= 500 {
			fiveHundreds.Add(1)
			t.Errorf("%s answered %d during rebuild", what, code)
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cl := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := rng.Intn(n)
				resp, err := cl.Get(fmt.Sprintf("%s/v1/node/%d/communities", base, id))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				resp.Body.Close()
				check(resp.StatusCode, "node lookup")
				body, _ := json.Marshal(map[string]any{"ids": []int32{int32(rng.Intn(n)), int32(rng.Intn(n))}})
				resp, err = cl.Post(base+"/v1/nodes/communities", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("batch reader: %v", err)
					return
				}
				resp.Body.Close()
				check(resp.StatusCode, "batch lookup")
			}
		}(int64(100 + r))
	}
	mutRng := rand.New(rand.NewSource(42))
	lastGen := uint64(0)
	for i := 0; i < 8; i++ {
		add := [][2]int32{}
		for j := 0; j < 5; j++ {
			u, v := int32(mutRng.Intn(n)), int32(mutRng.Intn(n))
			if u == v {
				continue
			}
			add = append(add, [2]int32{u, v})
		}
		var er struct {
			Generation uint64 `json:"generation"`
			Applied    bool   `json:"applied"`
		}
		code := postJSON(t, base+"/v1/edges", map[string]any{"add": add, "wait": i%2 == 0}, &er)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("edges batch %d = %d", i, code)
		}
		if er.Generation > lastGen {
			lastGen = er.Generation
		}
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if requests.Load() == 0 {
		t.Fatal("no concurrent reads ran")
	}
	if lastGen < 2 {
		t.Errorf("generation after mutations = %d, want rebuilds to have published", lastGen)
	}

	// (3) Kill shard 2's process (SIGKILL — no drain, no final seal):
	// partial batch results with explicit per-shard errors, single
	// lookups shed load, health degrades.
	if code := getJSON(t, base+"/healthz", &hr); code != http.StatusOK {
		t.Fatalf("pre-kill healthz = %d", code)
	}
	preKillGen := uint64(0)
	for _, sh := range hr.Shards {
		if sh.Shard == 2 {
			preKillGen = sh.Generation
		}
	}
	if preKillGen == 0 {
		t.Fatalf("pre-kill healthz has no generation for shard 2: %+v", hr.Shards)
	}
	var preKill Health
	if code := getJSON(t, "http://"+shardAddrs[2]+PathHealth, &preKill); code != http.StatusOK {
		t.Fatalf("pre-kill shard 2 health = %d", code)
	}
	if preKill.GlobalNodes != n || preKill.MaxNodes != 8*n {
		t.Fatalf("pre-kill shard 2 advertises global_nodes %d max_nodes %d, want %d/%d", preKill.GlobalNodes, preKill.MaxNodes, n, 8*n)
	}
	if err := shardProcs[2].cmd.Process.Kill(); err != nil {
		t.Fatalf("killing shard 2: %v", err)
	}
	waitForStatus(t, base, "degraded")
	var br struct {
		Results []struct {
			Node  int32  `json:"node"`
			Error string `json:"error"`
		} `json:"results"`
		Shards shard.GenVector `json:"shards"`
	}
	if code := postJSON(t, base+"/v1/nodes/communities", map[string]any{"ids": []int32{0, 1, 2}}, &br); code != http.StatusOK {
		t.Fatalf("degraded batch = %d, want 200 with partial results", code)
	}
	if br.Results[0].Error != "" || br.Results[1].Error != "" || br.Results[2].Error == "" {
		t.Errorf("degraded batch results: %+v", br.Results)
	}
	found := false
	for _, e := range br.Shards {
		if e.Shard == 2 && e.Err != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("vector does not flag killed shard: %+v", br.Shards)
	}
	if code := getJSON(t, base+"/v1/node/2/communities", nil); code != http.StatusServiceUnavailable {
		t.Errorf("lookup on killed shard = %d, want 503", code)
	}
	if code := getJSON(t, base+"/v1/node/0/communities", nil); code != http.StatusOK {
		t.Errorf("lookup on live shard = %d, want 200", code)
	}

	// (4) Restart the killed shard on its old address: it must recover
	// from its data directory and rejoin at the exact pre-kill
	// generation — the router's health returns to ok and lookups routed
	// to it serve again. The later -addr overrides common's :0. The
	// input graph is deleted first: the data directory is all a warm
	// boot may read, -in still names the file that is gone.
	if err := os.Remove(graphPath); err != nil {
		t.Fatal(err)
	}
	af2 := filepath.Join(dir, "shard2-restart.addr")
	shardProcs[2] = startOcad(t, append(shardArgs(2, af2), "-addr", shardAddrs[2])...)
	if got := waitAddrFile(t, shardProcs[2], af2, 60*time.Second); got != shardAddrs[2] {
		t.Fatalf("restarted shard bound %s, want %s", got, shardAddrs[2])
	}
	waitForStatus(t, base, "ok")
	if code := getJSON(t, base+"/healthz", &hr); code != http.StatusOK {
		t.Fatalf("post-restart healthz = %d", code)
	}
	for _, sh := range hr.Shards {
		if sh.Shard == 2 && sh.Generation != preKillGen {
			t.Errorf("restarted shard rejoined at generation %d, want pre-kill %d", sh.Generation, preKillGen)
		}
	}
	if code := getJSON(t, base+"/v1/node/2/communities", nil); code != http.StatusOK {
		t.Errorf("lookup on restarted shard = %d, want 200", code)
	}
	if logs := shardProcs[2].logs(); !strings.Contains(logs, "recovered generation") || !strings.Contains(logs, "input graph not read") {
		t.Errorf("restarted shard did not log a recovery that skipped the input:\n%s", logs)
	}
	var postRestart Health
	if code := getJSON(t, "http://"+shardAddrs[2]+PathHealth, &postRestart); code != http.StatusOK {
		t.Fatalf("post-restart shard 2 health = %d", code)
	}
	if postRestart.GlobalNodes != preKill.GlobalNodes || postRestart.MaxNodes != preKill.MaxNodes {
		t.Errorf("restarted shard advertises global_nodes %d max_nodes %d, want the pre-kill %d/%d",
			postRestart.GlobalNodes, postRestart.MaxNodes, preKill.GlobalNodes, preKill.MaxNodes)
	}
	// A router dialing now runs the handshake's agreement check over the
	// restarted shard and the two that never restarted.
	rt, err := Dial(context.Background(), shardAddrs, Options{ConnectTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial over the restarted deployment: %v", err)
	}
	rt.Close()

	// (5) Graceful drain: SIGTERM exits cleanly for router and shards.
	for _, p := range []*ocadProc{router, shardProcs[0], shardProcs[1], shardProcs[2]} {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM: %v", err)
		}
	}
	for i, p := range []*ocadProc{router, shardProcs[0], shardProcs[1], shardProcs[2]} {
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("process %d exited with %v; logs:\n%s", i, err, p.logs())
			}
		case <-time.After(30 * time.Second):
			t.Errorf("process %d did not exit after SIGTERM; logs:\n%s", i, p.logs())
		}
	}
}

// TestMultiProcessClusterReplicated is the replicated deployment's
// process-level acceptance gate: one primary plus two real
// `ocad -follow` replica processes on one shard, behind a real router
// started with -replica-addrs. The contract proven here: replicas
// surface in /healthz with role and freshness; read-your-writes holds
// through the replica set; and when the primary is SIGKILLed
// mid-traffic, reads keep flowing from the replicas with **zero 5xx**
// while writes degrade to an explicit 503. Finally SIGTERM drains the
// router and replicas cleanly.
func TestMultiProcessClusterReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and runs an OCA build")
	}
	bench, err := lfr.Generate(lfr.Params{
		N: 250, AvgDeg: 14, MaxDeg: 30, Mu: 0.02,
		MinCom: 25, MaxCom: 45, Seed: 7,
	})
	if err != nil {
		t.Fatalf("lfr.Generate: %v", err)
	}
	g := bench.Graph
	n := g.N()
	c, err := spectral.C(g, spectral.Options{})
	if err != nil {
		t.Fatalf("spectral.C: %v", err)
	}

	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.txt")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(gf, g); err != nil {
		t.Fatal(err)
	}
	gf.Close()

	// One primary, two replicas following it, one router over all three.
	primaryAF := filepath.Join(dir, "primary.addr")
	primary := startOcad(t,
		"-in", graphPath, "-seed", "11", "-c", fmt.Sprintf("%g", c),
		"-refresh-debounce", "5ms",
		"-shards", "1", "-serve-shard", "0",
		"-addr", "127.0.0.1:0", "-addr-file", primaryAF)
	primaryAddr := waitAddrFile(t, primary, primaryAF, 60*time.Second)

	replicaProcs := make([]*ocadProc, 2)
	replicaAddrs := make([]string, 2)
	for i := range replicaProcs {
		af := filepath.Join(dir, fmt.Sprintf("replica%d.addr", i))
		replicaProcs[i] = startOcad(t,
			"-follow", primaryAddr,
			"-shard-poll-interval", "10ms",
			"-addr", "127.0.0.1:0", "-addr-file", af)
		replicaAddrs[i] = waitAddrFile(t, replicaProcs[i], af, 60*time.Second)
	}
	routerAF := filepath.Join(dir, "router.addr")
	router := startOcad(t,
		"-shard-addrs", primaryAddr,
		"-shards", "1",
		"-replica-addrs", strings.Join(replicaAddrs, ","),
		"-shard-poll-interval", "10ms",
		"-addr", "127.0.0.1:0", "-addr-file", routerAF)
	base := "http://" + waitAddrFile(t, router, routerAF, 60*time.Second)

	// (0) healthz lists all three members with roles.
	type healthzReply struct {
		Status string `json:"status"`
		Shards []struct {
			Shard    int `json:"shard"`
			Replicas []struct {
				Role       string `json:"role"`
				Generation uint64 `json:"generation"`
				Healthy    bool   `json:"healthy"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	var hr healthzReply
	if code := getJSON(t, base+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz = %d %q; router logs:\n%s", code, hr.Status, router.logs())
	}
	if len(hr.Shards) != 1 || len(hr.Shards[0].Replicas) != 3 {
		t.Fatalf("healthz members: %+v, want primary + 2 replicas", hr.Shards)
	}
	if r := hr.Shards[0].Replicas; r[0].Role != "primary" || r[1].Role != "replica" || r[2].Role != "replica" {
		t.Fatalf("healthz roles: %+v", hr.Shards[0].Replicas)
	}

	// (1) Read-your-writes through the replica set.
	var er struct {
		Generation uint64 `json:"generation"`
	}
	if code := postJSON(t, base+"/v1/edges", map[string]any{"add": [][2]int32{{0, 5}}, "wait": true}, &er); code != http.StatusOK {
		t.Fatalf("edges wait=true = %d", code)
	}
	if code := getJSON(t, base+"/v1/node/0/communities", nil); code != http.StatusOK {
		t.Fatalf("read-your-writes lookup = %d", code)
	}

	// (2) Wait until the router sees every member at (or past) the
	// flushed generation — the read floor — so the kill below cannot
	// race the replicas' catch-up.
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, base+"/healthz", &hr)
		caughtUp := len(hr.Shards) == 1 && len(hr.Shards[0].Replicas) == 3
		for _, m := range hr.Shards[0].Replicas {
			caughtUp = caughtUp && m.Healthy && m.Generation >= er.Generation
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never reached generation %d: %+v", er.Generation, hr.Shards)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// (3) Reader barrage across the primary's death: zero 5xx.
	var (
		readErrs atomic.Int64
		reads    atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cl := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cl.Get(fmt.Sprintf("%s/v1/node/%d/communities", base, rng.Intn(n)))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				resp.Body.Close()
				reads.Add(1)
				if resp.StatusCode >= 500 {
					readErrs.Add(1)
					t.Errorf("read answered %d with replicas serving", resp.StatusCode)
				}
			}
		}(int64(300 + r))
	}

	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing primary: %v", err)
	}
	// Writes degrade to an explicit 503 once the poller notices.
	for deadline = time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		code := postJSON(t, base+"/v1/edges", map[string]any{"add": [][2]int32{{1, 6}}}, nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes after primary kill still answer %d, want 503; router logs:\n%s", code, router.logs())
		}
	}
	// Keep reading well past detection, then assert the count.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reads ran across the kill")
	}
	if readErrs.Load() != 0 {
		t.Fatalf("%d/%d reads answered 5xx across the primary kill, want 0", readErrs.Load(), reads.Load())
	}
	// Reads are served, so health stays ok — with the dead primary and
	// live replicas called out per member.
	if code := getJSON(t, base+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Errorf("healthz with dead primary = %d %q, want 200 ok", code, hr.Status)
	}
	if r := hr.Shards[0].Replicas; r[0].Healthy || !r[1].Healthy || !r[2].Healthy {
		t.Errorf("post-kill member health: %+v", r)
	}

	// (4) Graceful drain: SIGTERM exits cleanly for router and replicas.
	procs := []*ocadProc{router, replicaProcs[0], replicaProcs[1]}
	for _, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM: %v", err)
		}
	}
	for i, p := range procs {
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("process %d exited with %v; logs:\n%s", i, err, p.logs())
			}
		case <-time.After(30 * time.Second):
			t.Errorf("process %d did not exit after SIGTERM; logs:\n%s", i, p.logs())
		}
	}
}

// exportCover streams /v1/cover/export and reassembles the served
// communities (global ids) as one cover.
func exportCover(t *testing.T, base string, n int) *cover.Cover {
	t.Helper()
	resp, err := http.Get(base + "/v1/cover/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("export: no meta line")
	}
	var meta struct {
		Communities int             `json:"communities"`
		Shards      shard.GenVector `json:"shards"`
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatalf("export meta: %v", err)
	}
	var comms []cover.Community
	for sc.Scan() {
		var line struct {
			Members []int32 `json:"members"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("export line: %v", err)
		}
		for _, v := range line.Members {
			if v < 0 || int(v) >= n {
				t.Fatalf("export member %d outside [0, %d)", v, n)
			}
		}
		comms = append(comms, cover.NewCommunity(line.Members))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(comms) != meta.Communities {
		t.Fatalf("export streamed %d communities, meta says %d", len(comms), meta.Communities)
	}
	return cover.NewCover(comms)
}
