package spectral

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// The shifted power method this package used before the Lanczos run,
// kept verbatim as the independent reference LambdaMin is checked
// against: given enough iterations it converges to the same λmin by a
// different route.

// refLambdaMin is the old two-loop scheme: power iteration on A + I for
// λmax, then on A − λmax·I, whose dominant eigenvalue is λmin − λmax.
func refLambdaMin(g *graph.Graph, opt Options) (float64, error) {
	q, err := powerIterate(g, opt, 1)
	if err != nil {
		return 0, err
	}
	lmax := q - 1
	q, err = powerIterate(g, opt, -lmax)
	if err != nil {
		return 0, err
	}
	return q + lmax, nil
}

// powerIterate runs power iteration for M = A + shift·I and returns the
// final Rayleigh quotient x'Mx / x'x. The quotient is insensitive to the
// sign flips a negative dominant eigenvalue induces on x, so it converges
// for both shifted problems used above.
func powerIterate(g *graph.Graph, opt Options, shift float64) (float64, error) {
	n := g.N()
	if n == 0 {
		return 0, ErrNoEdges
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	normalize(x)
	prev := math.Inf(1)
	for iter := 0; iter < opt.MaxIter; iter++ {
		matVec(g, x, y, shift)
		q := dot(x, y) // Rayleigh quotient since ||x|| = 1
		ny := norm(y)
		if ny == 0 {
			// x landed in the null space; restart from a fresh vector.
			for i := range x {
				x[i] = rng.Float64() - 0.5
			}
			normalize(x)
			prev = math.Inf(1)
			continue
		}
		inv := 1 / ny
		for i := range y {
			x[i] = y[i] * inv
		}
		if math.Abs(q-prev) <= opt.Tol*math.Max(1, math.Abs(q)) {
			return q, nil
		}
		prev = q
	}
	return prev, nil
}

// matVec computes y = A·x + shift·x.
func matVec(g *graph.Graph, x, y []float64, shift float64) {
	for v := range y {
		sum := shift * x[v]
		for _, w := range g.Neighbors(int32(v)) {
			sum += x[w]
		}
		y[v] = sum
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normalize(a []float64) {
	n := norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}
