package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/lfr"
)

// lfrDense20k is the end-to-end benchmark's input (benchmark/input.go);
// lfrSmoke is its -smoke size.
func lfrDense20k(tb testing.TB, seed int64) *graph.Graph {
	return lfrGraph(tb, lfr.Params{N: 20000, AvgDeg: 48, MaxDeg: 120, Mu: 0.1,
		MinCom: 150, MaxCom: 400, OverlapNodes: 2000, OverlapMemb: 2, Seed: seed})
}

func lfrSmoke(tb testing.TB, seed int64) *graph.Graph {
	return lfrGraph(tb, lfr.Params{N: 2000, AvgDeg: 30, MaxDeg: 60, Mu: 0.1,
		MinCom: 40, MaxCom: 100, OverlapNodes: 100, OverlapMemb: 2, Seed: seed})
}

func lfrGraph(tb testing.TB, p lfr.Params) *graph.Graph {
	tb.Helper()
	b, err := lfr.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return b.Graph
}

// union places the given graphs side by side and appends isolated
// nodes.
func union(isolated int, parts ...*graph.Graph) *graph.Graph {
	n := isolated
	for _, p := range parts {
		n += p.N()
	}
	b := graph.NewBuilder(n)
	base := int32(0)
	for _, p := range parts {
		for v := int32(0); v < int32(p.N()); v++ {
			for _, w := range p.Neighbors(v) {
				if v < w {
					b.AddEdge(base+v, base+w)
				}
			}
		}
		base += int32(p.N())
	}
	return b.Build()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := int32(0); i < int32(n); i++ {
		b.AddEdge(i, (i+1)%int32(n))
	}
	return b.Build()
}

func star(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves + 1)
	for i := int32(1); i <= int32(leaves); i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := int32(0); i < int32(n-1); i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

// Known spectra:
//
//	K_n:     λmax = n-1, λmin = -1
//	C_n:     λk = 2cos(2πk/n); λmax = 2, λmin = -2 (even n)
//	K_{1,s}: λmax = √s, λmin = -√s
//	P_n:     λk = 2cos(kπ/(n+1))
func TestLambdaMaxKnownGraphs(t *testing.T) {
	opt := Options{Seed: 1}
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K5", complete(5), 4},
		{"K10", complete(10), 9},
		{"C8", cycle(8), 2},
		{"star9", star(9), 3},
		{"P5", pathGraph(5), 2 * math.Cos(math.Pi/6)},
	}
	for _, tc := range cases {
		got, err := LambdaMax(tc.g, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		approx(t, tc.name+" λmax", got, tc.want, 1e-4)
	}
}

func TestLambdaMinKnownGraphs(t *testing.T) {
	opt := Options{Seed: 1}
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K5", complete(5), -1},
		{"C8", cycle(8), -2},
		{"star9", star(9), -3}, // bipartite: λmin = -λmax
		{"P5", pathGraph(5), -2 * math.Cos(math.Pi/6)},
	}
	for _, tc := range cases {
		got, err := LambdaMin(tc.g, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		approx(t, tc.name+" λmin", got, tc.want, 1e-3)
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(5).Build()
	if _, err := LambdaMax(g, Options{}); err != ErrNoEdges {
		t.Fatalf("LambdaMax err=%v, want ErrNoEdges", err)
	}
	if _, err := LambdaMin(g, Options{}); err != ErrNoEdges {
		t.Fatalf("LambdaMin err=%v, want ErrNoEdges", err)
	}
	c, err := C(g, Options{})
	if err != nil || c != 0 {
		t.Fatalf("C=%g err=%v, want 0,<nil>", c, err)
	}
}

func TestCClamp(t *testing.T) {
	// Single edge: λmin = -1 so raw c = 1, must clamp to CMax < 1.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	c, err := C(b.Build(), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c != CMax {
		t.Fatalf("c=%g, want clamp to %g", c, CMax)
	}
	// K10: λmin = -1 exactly -> also clamped.
	c, err = C(complete(10), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c != CMax {
		t.Fatalf("K10 c=%g, want %g", c, CMax)
	}
	// C8: λmin=-2 -> c=0.5.
	c, err = C(cycle(8), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "C(C8)", c, 0.5, 1e-3)
}

func TestExactEigenvaluesKnown(t *testing.T) {
	eig := ExactEigenvalues(complete(4), 0)
	want := []float64{-1, -1, -1, 3}
	for i := range want {
		approx(t, "K4 eig", eig[i], want[i], 1e-8)
	}
	eig = ExactEigenvalues(star(4), 0)
	approx(t, "star4 min", eig[0], -2, 1e-8)
	approx(t, "star4 max", eig[len(eig)-1], 2, 1e-8)
}

// TestLanczosMatchesJacobi compares both Lanczos extremes with the exact
// Jacobi spectrum on random graphs of up to 200 nodes, at the default
// options.
func TestLanczosMatchesJacobi(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(197)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		if g.M() == 0 {
			return true
		}
		eig := ExactEigenvalues(g, 0)
		r := lanczos(g, Options{Seed: seed}.withDefaults())
		return math.Abs(r.max-eig[len(eig)-1]) < 1e-6 &&
			math.Abs(r.min-eig[0]) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSmallGraphsMatchExact runs the shapes a plain Lanczos run could
// trip on against the exact Jacobi spectrum.
func TestSmallGraphsMatchExact(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		steps int     // exact step count, 0 = any
		c     float64 // expected C, 0 = -1/λmin
	}{
		// K_n has two distinct eigenvalues, so the Krylov space is
		// exhausted (β_2 ≈ 0) after two steps.
		{name: "K5 breakdown", g: complete(5), steps: 2, c: CMax},
		{name: "K50 breakdown", g: complete(50), steps: 2, c: CMax},
		// Bipartite: λmin = -λmax, both extremes converge together.
		{name: "star9", g: star(9)},
		{name: "star100", g: star(100)},
		{name: "C8", g: cycle(8)},
		{name: "C100", g: cycle(100)},
		{name: "P5", g: pathGraph(5)},
		// Disconnected: the extremes are taken over all components.
		{name: "K5+K3", g: union(0, complete(5), complete(3)), c: CMax},
		{name: "C8+K6", g: union(0, cycle(8), complete(6))},
		{name: "star9+isolated", g: union(4, star(9))},
		{name: "K4+P5+isolated", g: union(3, complete(4), pathGraph(5))},
		// n = 2: a single edge, λ = ±1, raw c = 1 clamps to CMax.
		{name: "single edge", g: complete(2), steps: 2, c: CMax},
		{name: "single edge+isolated", g: union(5, complete(2)), c: CMax},
	}
	for _, tc := range cases {
		opt := Options{Seed: 1}
		eig := ExactEigenvalues(tc.g, 0)
		r := lanczos(tc.g, opt.withDefaults())
		if !r.converged {
			t.Errorf("%s: not converged after %d steps", tc.name, r.steps)
		}
		if tc.steps != 0 && r.steps != tc.steps {
			t.Errorf("%s: %d steps, want %d", tc.name, r.steps, tc.steps)
		}
		if r.steps > tc.g.N() {
			t.Errorf("%s: %d steps on %d nodes", tc.name, r.steps, tc.g.N())
		}
		approx(t, tc.name+" θmin", r.min, eig[0], 1e-6)
		approx(t, tc.name+" θmax", r.max, eig[len(eig)-1], 1e-6)
		lmin, err := LambdaMin(tc.g, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		approx(t, tc.name+" λmin", lmin, math.Min(eig[0], -1), 1e-6)
		wantC := tc.c
		if wantC == 0 {
			wantC = -1 / eig[0]
		}
		c, err := C(tc.g, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		approx(t, tc.name+" c", c, wantC, 1e-6)
	}
}

// TestStepCapErrsHigh pins what reaching Options.MaxIter means. C_10000
// has λmin = -2 with a gap of ~2e-7 to the next eigenvalue, far below
// what any affordable run resolves: every run ends on the cap, its θmin
// is a Ritz value and so ≥ λmin, and c = -1/θmin is ≥ the true 0.5 and
// inside (0, CMax]. A longer run only gets closer.
func TestStepCapErrsHigh(t *testing.T) {
	g := cycle(10000)
	prevC := CMax
	for _, tc := range []struct {
		maxIter int // 0 = default
		steps   int
		cSlack  float64 // c must be within this of 0.5
	}{
		{maxIter: 10, steps: 10, cSlack: 1e-2},
		{maxIter: 100, steps: 100, cSlack: 1e-4},
		{maxIter: 0, steps: 1000, cSlack: 1e-5},
	} {
		opt := Options{Seed: 1, MaxIter: tc.maxIter}
		r := lanczos(g, opt.withDefaults())
		if r.converged || r.steps != tc.steps {
			t.Fatalf("MaxIter %d: converged=%v after %d steps, want the cap at %d",
				tc.maxIter, r.converged, r.steps, tc.steps)
		}
		if r.min < -2 || r.max > 2 {
			t.Fatalf("MaxIter %d: Ritz values [%g, %g] outside the spectrum [-2, 2]",
				tc.maxIter, r.min, r.max)
		}
		c, err := C(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if c < 0.5 || c > 0.5+tc.cSlack || c > prevC {
			t.Fatalf("MaxIter %d: c=%.9f, want in [0.5, %g] and ≤ the shorter run's %.9f",
				tc.maxIter, c, 0.5+tc.cSlack, prevC)
		}
		prevC = c
	}
}

// TestLanczosMatchesConvergedReference checks LambdaMin against the
// shifted power method run to convergence (1e-12, 100k-iteration cap)
// on the benchmark's -smoke input. The same comparison on lfr-dense-20k,
// where that method needs ~15k iterations for λmin and at its old
// 1000-iteration cap was off in the 4th digit, takes ~40 s and runs
// under the slow tag (converged_ref_slow_test.go, `make test-slow`).
func TestLanczosMatchesConvergedReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("lfr-smoke-2k/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkConvergedReference(t, lfrSmoke(t, seed))
		})
	}
}

func checkConvergedReference(t *testing.T, g *graph.Graph) {
	want, err := refLambdaMin(g, Options{MaxIter: 100000, Tol: 1e-12})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	r := lanczos(g, Options{}.withDefaults())
	if !r.converged {
		t.Errorf("stopped on the step cap (%d steps), not the residual test", r.steps)
	}
	got, err := LambdaMin(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != r.min {
		t.Errorf("LambdaMin=%v but the run's θmin=%v", got, r.min)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-6 {
		t.Errorf("λmin=%.9f after %d steps, converged reference %.9f (relative error %.2g)",
			got, r.steps, want, rel)
	}
}

// TestDisconnected verifies λmax is the max over components.
func TestDisconnected(t *testing.T) {
	// K5 plus disjoint K3: λmax = 4 (from K5), λmin = -1.
	b := graph.NewBuilder(8)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(5, 7)
	g := b.Build()
	lmax, err := LambdaMax(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "λmax", lmax, 4, 1e-4)
	lmin, err := LambdaMin(g, Options{Seed: 2, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	// Both components have λmin = -1... path component K3 has λmin=-1 too.
	approx(t, "λmin", lmin, -1, 1e-2)
}

// TestDeterminism requires bit-equal results for a fixed seed, whatever
// GOMAXPROCS is.
func TestDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range []*graph.Graph{cycle(50), lfrSmoke(t, 1)} {
		var want ritz
		for i, procs := range []int{1, 2, 1} {
			runtime.GOMAXPROCS(procs)
			got := lanczos(g, Options{Seed: 7}.withDefaults())
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("GOMAXPROCS=%d gave %+v, first run gave %+v", procs, got, want)
			}
		}
	}
}

func BenchmarkLambdaMinCycle(b *testing.B) {
	g := cycle(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LambdaMin(g, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCLFRDense20k isolates the end-to-end benchmark's
// spectral.c_ms line: C on its lfr-dense-20k input.
func BenchmarkCLFRDense20k(b *testing.B) {
	g := lfrDense20k(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := C(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
