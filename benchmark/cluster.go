package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/persist"
)

// readyTimeout bounds every readiness wait; a run that exceeds it fails.
const readyTimeout = 60 * time.Second

// proc is one real ocad process.
type proc struct {
	name    string
	args    []string // without -addr: the address is chosen per start
	dir     string   // holds the log and the addr file
	cmd     *exec.Cmd
	addr    string // bound host:port, learned from -addr-file
	started time.Time
	done    chan struct{} // closed when the process has exited
	stopped bool          // the harness itself killed it
}

func (p *proc) logPath() string  { return filepath.Join(p.dir, p.name+".log") }
func (p *proc) addrFile() string { return filepath.Join(p.dir, p.name+".addr") }

// start execs the process — on 127.0.0.1:0 the first time, on the
// address it had before on a restart — with its output appended to the
// process's log file.
func (p *proc) start(bin string) error {
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if err := os.Remove(p.addrFile()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	logf, err := os.OpenFile(p.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append(append([]string(nil), p.args...), "-addr", addr, "-addr-file", p.addrFile())
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group: a terminal's SIGINT reaches the harness only,
	// which then kills every group it started. Pdeathsig covers the ways
	// out that run no cleanup (a panic on a client goroutine, SIGKILL of
	// the harness, a signal arriving while a process is being started):
	// the kernel kills the daemon when the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd, p.stopped = cmd, false
	done := make(chan struct{})
	p.done = done
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: any exit the harness did not cause fails the run
		close(done)
	}()
	return nil
}

// kill SIGKILLs the process group and waits until the process is gone.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	p.stopped = true
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // already-exited is fine
	<-p.done
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// waitAddr blocks until the process has written its bound address.
func (p *proc) waitAddr(deadline time.Time) error {
	for {
		if b, err := os.ReadFile(p.addrFile()); err == nil && len(b) > 0 {
			p.addr = strings.TrimSpace(string(b))
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited before serving (see %s)", p.name, p.logPath())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving after %v", p.name, readyTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procStat reads utime+stime (seconds) and the peak RSS (MB) of a live
// process from /proc.
func (p *proc) procStat() (cpuSeconds, peakRSSMB float64, err error) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	cpuSeconds = (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			peakRSSMB = kb / 1024
		}
	}
	return cpuSeconds, peakRSSMB, nil
}

// cluster is one booted topology: a front process answering the public
// API (the router, or the single daemon) and the shard processes behind
// it (none in the single topology).
type cluster struct {
	bin     string
	single  bool
	front   *proc
	shards  []*proc
	dataDir string       // the -data-dir every data-bearing process was given
	ctl     *http.Client // control-plane requests: health, metrics, export
}

// dataProc is the process that owns durable state and is the recovery
// phase's victim: shard 0, or the single daemon.
func (c *cluster) dataProc() *proc {
	if c.single {
		return c.front
	}
	return c.shards[0]
}

// victimDataDir is where dataProc keeps its segments and WAL: a shard
// server uses a subdirectory of -data-dir named after its index.
func (c *cluster) victimDataDir() string {
	if c.single {
		return c.dataDir
	}
	return filepath.Join(c.dataDir, "shard-0")
}

// newestSegment is the generation of the newest segment sealed in a data
// directory, 0 when there is none. Segments appear by atomic rename, so
// a name that parses is a complete segment.
func newestSegment(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var newest uint64
	for _, e := range ents {
		var gen uint64
		if n, _ := fmt.Sscanf(e.Name(), persist.SegmentPattern, &gen); n == 1 && e.Name() == persist.SegmentName(gen) && gen > newest {
			newest = gen
		}
	}
	return newest, nil
}

func (c *cluster) procs() []*proc {
	return append([]*proc{c.front}, c.shards...)
}

// flagLines is the command line of every process, for the output stamp.
func (c *cluster) flagLines() []string {
	var out []string
	for _, p := range c.procs() {
		out = append(out, p.name+": ocad "+strings.Join(p.args, " ")+" -addr 127.0.0.1:0 -addr-file <file>")
	}
	return out
}

const shardCount = 2

// bootCluster starts the topology in a fresh directory and returns once
// the front answers /healthz with a built cover. setup is first exec →
// serving. Daemon flags are the defaults plus -data-dir; fsync stays on.
func bootCluster(reg *registry, bin, graphPath, dir string, single bool) (c *cluster, setup time.Duration, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	dataDir := filepath.Join(dir, "data")
	c = &cluster{bin: bin, single: single, dataDir: dataDir, ctl: &http.Client{Timeout: 30 * time.Second}}
	reg.add(c)
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	deadline := time.Now().Add(readyTimeout)
	var first time.Time
	if single {
		c.front = &proc{name: "single", dir: dir, args: []string{"-in", graphPath, "-data-dir", dataDir}}
		if err := c.front.start(bin); err != nil {
			return c, 0, err
		}
		first = c.front.started
	} else {
		for i := 0; i < shardCount; i++ {
			p := &proc{name: fmt.Sprintf("shard%d", i), dir: dir, args: []string{
				"-in", graphPath, "-shards", strconv.Itoa(shardCount), "-serve-shard", strconv.Itoa(i), "-data-dir", dataDir}}
			c.shards = append(c.shards, p)
			if err := p.start(bin); err != nil {
				return c, 0, err
			}
		}
		first = c.shards[0].started
		var addrs []string
		for _, p := range c.shards {
			if err := p.waitAddr(deadline); err != nil {
				return c, 0, err
			}
			addrs = append(addrs, p.addr)
		}
		c.front = &proc{name: "router", dir: dir, args: []string{
			"-shard-addrs", strings.Join(addrs, ","), "-shards", strconv.Itoa(shardCount)}}
		if err := c.front.start(bin); err != nil {
			return c, 0, err
		}
	}
	if err := c.front.waitAddr(deadline); err != nil {
		return c, 0, err
	}
	if err := c.waitFrontHealthy(deadline, 0); err != nil {
		return c, 0, err
	}
	return c, time.Since(first), nil
}

// stop kills every process of the cluster.
func (c *cluster) stop() {
	for _, p := range c.procs() {
		if p != nil {
			p.kill()
		}
	}
}

// getJSON GETs a control-plane URL and decodes the JSON body into v.
func (c *cluster) getJSON(url string, v any) error {
	resp, err := c.ctl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// frontHealth is the slice of /healthz the harness reads.
type frontHealth struct {
	Status     string `json:"status"`
	Edges      int64  `json:"edges"`
	CoverReady bool   `json:"cover_ready"`
	Generation uint64 `json:"generation"`
	Pending    int    `json:"pending_mutations"`
	Rebuilding bool   `json:"rebuilding"`
	LastBuild  int64  `json:"last_rebuild_millis"`
	Shards     []struct {
		Shard      int    `json:"shard"`
		Generation uint64 `json:"generation"`
		Error      string `json:"error"`
	} `json:"shards"`
}

func (c *cluster) frontHealth() (frontHealth, error) {
	var h frontHealth
	err := c.getJSON("http://"+c.front.addr+"/healthz", &h)
	return h, err
}

// shardHealth is the slice of /shard/v1/health the harness reads.
type shardHealth struct {
	DeadlineShed uint64 `json:"deadline_shed"`
	Snapshot     struct {
		Generation  uint64 `json:"generation"`
		Edges       int64  `json:"edges"`
		RebuildMode string `json:"rebuild_mode"`
		DirtyNodes  int    `json:"dirty_nodes"`
	} `json:"snapshot"`
	Status struct {
		Status struct {
			Rebuilds  uint64 `json:"rebuilds"`
			LastBuild int64  `json:"last_build_nanos"`
		} `json:"status"`
	} `json:"status"`
}

func (c *cluster) shardHealth(p *proc) (shardHealth, error) {
	var h shardHealth
	err := c.getJSON("http://"+p.addr+"/shard/v1/health", &h)
	return h, err
}

// waitFrontHealthy polls /healthz until the front reports ok with a
// built cover and, when shard0Gen > 0, shard 0 mirrored at that
// generation without error.
func (c *cluster) waitFrontHealthy(deadline time.Time, shard0Gen uint64) error {
	for {
		h, err := c.frontHealth()
		if err == nil && h.Status == "ok" && h.CoverReady {
			if shard0Gen == 0 || c.single {
				return nil
			}
			if len(h.Shards) > 0 && h.Shards[0].Error == "" && h.Shards[0].Generation == shard0Gen {
				return nil
			}
		}
		if c.front.exited() {
			return fmt.Errorf("%s exited while waiting for it to serve (see %s)", c.front.name, c.front.logPath())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v (last: %+v, err %v)", c.front.name, readyTimeout, h, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkDaemons fails when a daemon exited without the harness killing
// it or logged a panic.
func (c *cluster) checkDaemons() error {
	for _, p := range c.procs() {
		if p.exited() && !p.stopped {
			return fmt.Errorf("%s exited early (see %s)", p.name, p.logPath())
		}
		log, err := os.ReadFile(p.logPath())
		if err != nil {
			return err
		}
		for _, mark := range []string{"panic:", "fatal error:"} {
			if bytes.Contains(log, []byte(mark)) {
				return fmt.Errorf("%s logged %q (see %s)", p.name, mark, p.logPath())
			}
		}
	}
	return nil
}

// resources sums CPU seconds and peak RSS over the daemons, and reports
// the front's CPU seconds separately.
func (c *cluster) resources() (cpu, frontCPU, rssMB float64, err error) {
	for _, p := range c.procs() {
		pc, pr, err := p.procStat()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("reading /proc for %s: %w", p.name, err)
		}
		cpu += pc
		rssMB += pr
		if p == c.front {
			frontCPU = pc
		}
	}
	return cpu, frontCPU, rssMB, nil
}

// registry tracks every cluster the invocation has booted so one
// cleanup kills them all, whatever path the process leaves by.
type registry struct {
	mu       sync.Mutex
	clusters []*cluster
}

func (r *registry) add(c *cluster) {
	r.mu.Lock()
	r.clusters = append(r.clusters, c)
	r.mu.Unlock()
}

func (r *registry) stopAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.clusters {
		c.stop()
	}
	r.clusters = nil
}

// buildOcad compiles cmd/ocad once into workDir/bin and returns the
// binary's path. It must run from the repository root.
func buildOcad(workDir string) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "ocad", "main.go")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(workDir, "bin", "ocad"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/ocad").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/ocad: %v\n%s", err, out)
	}
	return bin, nil
}
