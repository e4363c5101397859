// Package spectral computes the adjacency-spectrum quantities OCA needs:
// the extreme eigenvalues of a graph's adjacency matrix and the derived
// inner-product parameter c = -1/λmin of the virtual vector
// representation (Lovász), all matrix-free over the CSR graph.
package spectral

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Options control the Lanczos run behind LambdaMin, LambdaMax and C.
type Options struct {
	// MaxIter bounds the Lanczos steps (one matrix-vector product each);
	// a run never takes more than min(MaxIter, n). Default 1000. A run
	// that reaches the bound returns its best Ritz values so far. Ritz
	// values lie inside the spectrum, so the λmin estimate is then ≥ the
	// true λmin: c errs high and stays in (0, CMax].
	MaxIter int
	// Tol is the relative residual at which a Ritz value counts as
	// converged: ‖A·y − θ·y‖ ≤ Tol·max(1, |θ|) for its unit Ritz vector
	// y, which bounds the eigenvalue error |θ − λ| by the same amount.
	// Default 1e-7.
	Tol float64
	// Seed seeds the random starting vector. The result is deterministic
	// for a fixed seed.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// ErrNoEdges is returned when an eigenvalue of an edgeless graph is
// requested; its adjacency spectrum is identically zero and c is
// undefined.
var ErrNoEdges = errors.New("spectral: graph has no edges")

// LambdaMax estimates the largest adjacency eigenvalue of g as the
// largest Ritz value of the Lanczos run.
func LambdaMax(g *graph.Graph, opt Options) (float64, error) {
	if g.M() == 0 {
		return 0, ErrNoEdges
	}
	return lanczos(g, opt.withDefaults()).max, nil
}

// LambdaMin estimates the most negative adjacency eigenvalue of g as the
// smallest Ritz value of the Lanczos run.
func LambdaMin(g *graph.Graph, opt Options) (float64, error) {
	if g.M() == 0 {
		return 0, ErrNoEdges
	}
	r := lanczos(g, opt.withDefaults())
	lmin := r.min
	// Numerical guard: adjacency eigenvalues satisfy λmin <= -1 for any
	// graph with at least one edge (interlacing with a single-edge
	// subgraph), and λmin >= -λmax.
	if lmin > -1 {
		lmin = -1
	}
	if lmin < -r.max {
		lmin = -r.max
	}
	return lmin, nil
}

// CMax is the exclusive upper bound for the inner-product parameter c;
// Definition 1 of the paper requires c < 1.
const CMax = 0.999

// C returns the paper's inner-product parameter c = -1/λmin, clamped to
// (0, CMax]. For an edgeless graph it returns 0 (every fitness optimum is
// then a singleton, which is the sensible degenerate answer).
func C(g *graph.Graph, opt Options) (float64, error) {
	lmin, err := LambdaMin(g, opt)
	if err == ErrNoEdges {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	c := -1 / lmin
	if c > CMax {
		c = CMax
	}
	return c, nil
}

// ritz is the outcome of one Lanczos run: the extreme Ritz values, the
// steps taken, and whether both met the residual test (false: the run
// ended on the step cap).
type ritz struct {
	min, max  float64
	steps     int
	converged bool
}

// lanczos runs the plain three-term Lanczos recurrence on A from a
// seeded random start vector: three n-vectors, no stored basis, no
// reorthogonalisation. After each step it reads θmin and θmax off the
// tridiagonal matrix T_k and settles each the first time it satisfies
// the residual bound β_k·|s_k| ≤ Tol·max(1, |θ|), s_k being the last
// component of θ's unit eigenvector of T_k — the residual norm of the
// Ritz pair; the run stops when both have settled. A breakdown (β_k ≈ 0:
// the Krylov space is invariant and its Ritz values are eigenvalues)
// passes the same test. A difference test on successive θmin would not
// do: θmin plateaus on the edge of the spectrum's bulk before an
// outlying λmin emerges.
//
// A settled value is not read again: it can only creep further towards
// its eigenvalue, and once a ghost copy of it starts to emerge in T_k
// (the price of no reorthogonalisation) the two near-equal eigenvectors
// mix and s_k stops being small for a while. LambdaMin's -λmax guard is
// why θmax must settle too: a θmax still short of λmax would clip a
// good θmin on a near-bipartite graph.
//
// The run is single-threaded with a fixed summation order, and the
// float64 conversions around products keep the compiler from fusing
// them into multiply-adds on architectures that have one, so the result
// depends only on (g, opt.Seed).
func lanczos(g *graph.Graph, opt Options) ritz {
	n := g.N()
	steps := min(opt.MaxIter, n)
	rng := rand.New(rand.NewSource(opt.Seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	scale(v, 1/norm(v))
	prev := make([]float64, n)
	w := make([]float64, n)
	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps) // beta[j] couples steps j+1 and j+2
	var r ritz
	var b float64
	var minSettled, maxSettled bool
	for {
		// w = A·v − β_{k-1}·v_{k-1}; α_k = w·v; w −= α_k·v; β_k = ‖w‖.
		var a float64
		for i := range w {
			sum := float64(-b * prev[i])
			for _, j := range g.Neighbors(int32(i)) {
				sum += v[j]
			}
			w[i] = sum
			a += float64(sum * v[i])
		}
		for i := range w {
			w[i] -= float64(a * v[i])
		}
		b = norm(w)
		alpha = append(alpha, a)
		r.steps++

		extreme := func(sign float64) (float64, bool) {
			theta, s := smallestEigen(alpha, beta, sign)
			return sign * theta, b*s <= opt.Tol*math.Max(1, math.Abs(theta))
		}
		if !minSettled {
			r.min, minSettled = extreme(1)
		}
		if !maxSettled {
			r.max, maxSettled = extreme(-1)
		}
		r.converged = minSettled && maxSettled
		if r.converged || r.steps == steps {
			return r
		}
		beta = append(beta, b)
		scale(w, 1/b)
		prev, v, w = v, w, prev
	}
}

// smallestEigen returns the smallest eigenvalue θ of the symmetric
// tridiagonal matrix T with diagonal sign·alpha and off-diagonal beta
// (len(alpha)-1 entries, all positive), and |s|, the magnitude of the
// last component of θ's unit eigenvector. The largest eigenvalue of T
// is minus the smallest of −T, whose eigenvectors have the same
// component magnitudes, so sign = -1 serves θmax.
//
// θ comes from Sturm bisection: T − x·I is positive definite — every
// pivot of its LDLᵀ factorisation positive — exactly when x < θ. With
// x = θ the pivots d_j give the eigenvector by x_{j+1} = −d_j·x_j/β_j,
// and s² = x_k²/Σx_j² is accumulated as a ratio so nothing overflows.
func smallestEigen(alpha, beta []float64, sign float64) (theta, s float64) {
	k := len(alpha)
	// lo starts strictly below θ (Gershgorin), so T − lo·I is positive
	// definite throughout; θ ≤ every diagonal entry.
	lo, hi := math.Inf(1), math.Inf(1)
	for j := 0; j < k; j++ {
		a, radius := sign*alpha[j], 0.0
		if j > 0 {
			radius += beta[j-1]
		}
		if j < k-1 {
			radius += beta[j]
		}
		lo = math.Min(lo, a-radius-1)
		hi = math.Min(hi, a)
	}
	below := func(x float64) bool {
		d := sign*alpha[0] - x
		for j := 1; d > 0 && j < k; j++ {
			d = sign*alpha[j] - x - beta[j-1]*beta[j-1]/d
		}
		return d > 0
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if below(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	theta = lo
	// sum = Σ_{i≤j} (x_i/x_j)², advanced one pivot at a time.
	sum := 1.0
	d := sign*alpha[0] - theta
	for j := 1; j < k; j++ {
		ratio := beta[j-1] / d
		sum = float64(sum*ratio*ratio) + 1
		d = sign*alpha[j] - theta - beta[j-1]*beta[j-1]/d
	}
	return theta, 1 / math.Sqrt(sum)
}

func norm(a []float64) float64 {
	var s float64
	for _, x := range a {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

func scale(a []float64, f float64) {
	for i := range a {
		a[i] *= f
	}
}
