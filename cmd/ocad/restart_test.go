package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/segment"
	"repro/internal/transport"
)

// The restart tests run real ocad processes: a SIGKILL (no drain, no
// final seal) is what a warm boot has to survive, and a goroutine
// running run() cannot be killed.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// TestMain removes the binary ocadBin built, if any test asked for it.
func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

func ocadBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns ocad processes")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ocad-bin-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "ocad")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// daemon is one spawned ocad with its output captured.
type daemon struct {
	cmd    *exec.Cmd
	out    *os.File // the log; read back with logs()
	addr   string
	exited chan struct{} // closed once the process has been waited for
}

func (d *daemon) logs() string {
	b, _ := os.ReadFile(d.out.Name())
	return string(b)
}

// kill SIGKILLs the daemon and waits until it is gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// startDaemon boots ocad on a kernel-chosen port and returns once it
// serves (its -addr-file exists).
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	logf, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	af := filepath.Join(dir, "addr")
	d := &daemon{out: logf, exited: make(chan struct{}), cmd: exec.Command(ocadBin(t),
		append(args, "-addr", "127.0.0.1:0", "-addr-file", af)...)}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		d.kill()
		logf.Close()
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(af); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("ocad %v exited before serving:\n%s", args, d.logs())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("ocad %v not serving after 30s:\n%s", args, d.logs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func httpJSON(t *testing.T, method, url string, in, out any) {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d: %s", method, url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
	}
}

// twoCliquesEdgeList is two K_6 cliques sharing nodes 4 and 5: 10
// nodes, 29 edges — the graph internal/persist's parent-commit fixture
// segment holds. Edge 4-5 is listed by both cliques; the reader drops
// the duplicate.
func twoCliquesEdgeList() string {
	var sb strings.Builder
	for _, lo := range []int{0, 4} {
		for i := lo; i < lo+6; i++ {
			for j := i + 1; j < lo+6; j++ {
				fmt.Fprintf(&sb, "%d %d\n", i, j)
			}
		}
	}
	return sb.String()
}

func writeGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(twoCliquesEdgeList()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const noInputRead = "input graph not read"

// singleState is what a K=1 daemon reports of its served state.
type singleState struct {
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int64  `json:"edges"`
}

// The two lines a warm boot logs about a one-publish WAL tail it read
// back from its cover patch: the first is the one the benchmark parses,
// the second says nothing was re-derived and nothing needed sealing.
const (
	replayedOne  = "(segment+wal, 1 batches replayed)"
	foldedOne    = "recovery folded 1 publishes from the log and derived 0; boot seal not needed"
	foldedSealed = "recovery folded 1 publishes from the log and derived 0; boot seal ran"
)

// TestWarmRestartSingle: a K=1 daemon SIGKILLed one publish past its
// boot segment restarts on the populated directory at the pre-kill
// generation with -in naming a deleted file, and again with -in
// omitted, without reading the input either time.
func TestWarmRestartSingle(t *testing.T) {
	in, dataDir := writeGraph(t), filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, "-in", in, "-data-dir", dataDir)
	if strings.Contains(d.logs(), noInputRead) {
		t.Fatalf("cold boot claims it did not read the input:\n%s", d.logs())
	}
	var er struct {
		Generation uint64 `json:"generation"`
	}
	httpJSON(t, "POST", "http://"+d.addr+"/v1/edges", map[string]any{"add": [][2]int{{0, 9}}, "wait": true}, &er)
	var pre singleState
	httpJSON(t, "GET", "http://"+d.addr+"/healthz", nil, &pre)
	if pre.Generation != er.Generation || pre.Generation < 2 || pre.Edges != 30 {
		t.Fatalf("pre-kill state %+v after a mutation acknowledged at generation %d", pre, er.Generation)
	}
	d.kill()
	if err := os.Remove(in); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"-in", in, "-data-dir", dataDir}, // the file is gone
		{"-data-dir", dataDir},
	} {
		d = startDaemon(t, args...)
		var post singleState
		httpJSON(t, "GET", "http://"+d.addr+"/healthz", nil, &post)
		if post != pre {
			t.Errorf("ocad %v serves %+v, want the pre-kill %+v", args, post, pre)
		}
		if logs := d.logs(); !strings.Contains(logs, noInputRead) || strings.Contains(logs, "loaded graph") {
			t.Errorf("ocad %v: log does not say the input was skipped:\n%s", args, logs)
		}
		// The tail's one publish is read back from the log: nothing is
		// derived, so the boot has nothing to seal and every restart finds
		// the same segment and the same tail.
		if logs := d.logs(); !strings.Contains(logs, replayedOne) || !strings.Contains(logs, foldedOne) {
			t.Errorf("ocad %v: log lacks %q or %q:\n%s", args, replayedOne, foldedOne, logs)
		}
		var hz struct {
			Persistence persist.Stats `json:"persistence"`
		}
		httpJSON(t, "GET", "http://"+d.addr+"/healthz", nil, &hz)
		if rs := hz.Persistence.Recovered; rs.PatchedPublishes != 1 || rs.DerivedPublishes != 0 || hz.Persistence.NewestSegment != 1 {
			t.Errorf("ocad %v: /healthz reports %d publishes folded, %d derived, newest segment %d; want 1, 0, 1",
				args, rs.PatchedPublishes, rs.DerivedPublishes, hz.Persistence.NewestSegment)
		}
		d.kill()
	}
}

// TestWarmRestartShardServer is the same contract for the -serve-shard
// role, plus the identity the router handshake cross-checks: the
// restarted shard advertises the pre-kill global_nodes and max_nodes,
// an explicit -max-nodes below the persisted ceiling is raised to it,
// and one above it wins.
func TestWarmRestartShardServer(t *testing.T) {
	in, dataDir := writeGraph(t), filepath.Join(t.TempDir(), "data")
	role := []string{"-shards", "1", "-serve-shard", "0", "-data-dir", dataDir}
	d := startDaemon(t, append([]string{"-in", in}, role...)...)

	// One mutation through the wire protocol, so the restart replays a
	// WAL tail onto the boot segment.
	rt, err := transport.Dial(context.Background(), []string{d.addr}, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := rt.Enqueue(context.Background(), [][2]int32{{0, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Flush(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	var pre transport.Health
	httpJSON(t, "GET", "http://"+d.addr+transport.PathHealth, nil, &pre)
	if pre.GlobalNodes != 10 || pre.MaxNodes != 80 || pre.Snapshot.Gen < 2 {
		t.Fatalf("pre-kill health: global %d max %d generation %d, want 10/80/>=2", pre.GlobalNodes, pre.MaxNodes, pre.Snapshot.Gen)
	}
	d.kill()
	if err := os.Remove(in); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		args     []string
		wantMax  int
		wantLine string
	}{
		{[]string{"-in", in}, 80, foldedOne}, // the file is gone
		{nil, 80, foldedOne},
		{[]string{"-max-nodes", "-1"}, 80, foldedOne},
		{[]string{"-max-nodes", "20"}, 80, foldedOne},
		{[]string{"-max-nodes", "0"}, 80, foldedOne},
		{[]string{"-max-nodes", "200"}, 200, foldedSealed},
	} {
		d = startDaemon(t, append(tc.args, role...)...)
		var post transport.Health
		httpJSON(t, "GET", "http://"+d.addr+transport.PathHealth, nil, &post)
		if post.GlobalNodes != pre.GlobalNodes || post.MaxNodes != tc.wantMax || post.Snapshot.Gen != pre.Snapshot.Gen || post.Snapshot.Edges != pre.Snapshot.Edges {
			t.Errorf("ocad %v: global %d max %d generation %d edges %d, want %d/%d/%d/%d", tc.args,
				post.GlobalNodes, post.MaxNodes, post.Snapshot.Gen, post.Snapshot.Edges,
				pre.GlobalNodes, tc.wantMax, pre.Snapshot.Gen, pre.Snapshot.Edges)
		}
		if logs := d.logs(); !strings.Contains(logs, noInputRead) || strings.Contains(logs, "loaded graph") {
			t.Errorf("ocad %v: log does not say the input was skipped:\n%s", tc.args, logs)
		}
		if logs := d.logs(); !strings.Contains(logs, replayedOne) || !strings.Contains(logs, "shard 0 "+tc.wantLine) {
			t.Errorf("ocad %v: log lacks %q or %q:\n%s", tc.args, replayedOne, tc.wantLine, logs)
		}
		d.kill()
	}
	// The raised ceiling was persisted by the boot seal of the restart
	// that raised it — a fully described tail needs no seal, a new
	// identity does — so it is the floor from now on.
	d = startDaemon(t, role...)
	var post transport.Health
	httpJSON(t, "GET", "http://"+d.addr+transport.PathHealth, nil, &post)
	if post.MaxNodes != 200 {
		t.Errorf("ceiling after a restart that raised it to 200: %d", post.MaxNodes)
	}
}

// TestParentCommitDirectoryFallsBack boots over a directory holding a
// segment written before META carried global_nodes: the daemon parses
// -in for the count, says so, serves the persisted generation, and
// reseals the segment with the key — after which -in is optional.
func TestParentCommitDirectoryFallsBack(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "persist", "testdata", "parent-"+persist.SegmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dataDir, persist.SegmentName(3)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data-dir", dataDir, "-addr", "127.0.0.1:0"}); !errors.Is(err, errMissingIn) {
		t.Fatalf("boot without -in over a segment lacking global_nodes: %v, want %v", err, errMissingIn)
	}

	in := writeGraph(t)
	d := startDaemon(t, "-in", in, "-data-dir", dataDir)
	var got singleState
	httpJSON(t, "GET", "http://"+d.addr+"/healthz", nil, &got)
	if got.Generation != 3 || got.Nodes != 10 || got.Edges != 29 {
		t.Errorf("served %+v, want the fixture's generation 3 (10 nodes, 29 edges)", got)
	}
	if logs := d.logs(); !strings.Contains(logs, "predates global_nodes") || !strings.Contains(logs, "loaded graph: 10 nodes") {
		t.Errorf("log does not report the fallback parse:\n%s", logs)
	}
	// The boot seal already rewrote the segment with the count, so even
	// a SIGKILL now leaves a directory that boots on its own.
	d.kill()
	seg, err := persist.LoadSegment(filepath.Join(dataDir, persist.SegmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if seg.GlobalNodes != 10 || seg.MaxNodes != 80 {
		t.Errorf("segment after the fallback boot records global %d max %d, want 10/80", seg.GlobalNodes, seg.MaxNodes)
	}
	seg.Close()
	if err := os.Remove(in); err != nil {
		t.Fatal(err)
	}
	d = startDaemon(t, "-data-dir", dataDir)
	var again singleState
	httpJSON(t, "GET", "http://"+d.addr+"/healthz", nil, &again)
	if again != got || !strings.Contains(d.logs(), noInputRead) {
		t.Errorf("served %+v after the upgrade, want %+v without reading the input:\n%s", again, got, d.logs())
	}
}

// TestEmptyDataDirStillNeedsInput: -in is optional only when the
// directory holds state.
func TestEmptyDataDirStillNeedsInput(t *testing.T) {
	for _, role := range [][]string{nil, {"-shards", "2", "-serve-shard", "1"}} {
		args := append([]string{"-data-dir", t.TempDir(), "-addr", "127.0.0.1:0"}, role...)
		if err := run(args); !errors.Is(err, errMissingIn) {
			t.Errorf("run(%v) = %v, want %v", args, err, errMissingIn)
		}
	}
}

// TestBootNodes pins how the growth ceiling resolves against a
// recovered segment, for both roles: it never shrinks.
func TestBootNodes(t *testing.T) {
	seg := &persist.Segment{Path: "d/" + persist.SegmentName(1), Data: segment.Data{Meta: segment.Meta{GlobalNodes: 10, MaxNodes: 80}}}
	for _, tc := range []struct{ flag, want int }{
		{-1, 80}, // auto reuses the persisted ceiling
		{0, 80},
		{79, 80},
		{81, 81},
	} {
		g, global, maxN, err := bootNodes("/no/such/file", tc.flag, seg)
		if err != nil || g != nil || global != 10 || maxN != tc.want {
			t.Errorf("bootNodes(-max-nodes %d) = graph %v, global %d, max %d, err %v; want nil/10/%d/nil", tc.flag, g, global, maxN, err, tc.want)
		}
	}

	// A segment without global_nodes sends the boot to the input file,
	// and still floors the ceiling.
	in := writeGraph(t)
	old := &persist.Segment{Path: "d/" + persist.SegmentName(1), Data: segment.Data{Meta: segment.Meta{MaxNodes: 500}}}
	for _, tc := range []struct {
		seg        *persist.Segment
		flag, want int
	}{
		{nil, -1, 80},
		{nil, 7, 7},
		{old, -1, 500},
		{old, 900, 900},
	} {
		g, global, maxN, err := bootNodes(in, tc.flag, tc.seg)
		if err != nil || g == nil || g.N() != 10 || global != 10 || maxN != tc.want {
			t.Errorf("bootNodes(%v, -max-nodes %d) = global %d, max %d, err %v; want 10/%d", tc.seg, tc.flag, global, maxN, err, tc.want)
		}
	}
	if _, _, _, err := bootNodes("", -1, old); !errors.Is(err, errMissingIn) {
		t.Errorf("bootNodes without -in over an old segment: %v, want %v", err, errMissingIn)
	}
}
