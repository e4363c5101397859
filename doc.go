// Package repro is an open-source Go reproduction of "Overlapping
// Community Search for Social Networks" (Padrol-Sureda, Perarnau-Llobet,
// Pfeifle, Muntés-Mulero; ICDE 2010): the OCA algorithm for detecting
// overlapping communities in large graphs, together with everything the
// paper's evaluation depends on.
//
// The root package is the public API. It wraps:
//
//   - OCA itself: greedy local maximization of the directed-Laplacian
//     fitness L(S) = s − √(s(s−1)) + 2·c·Ein(S)·(1 − (s−2)/√(s(s−1)))
//     over node sets, with c = −1/λmin computed by a Lanczos run, plus
//     the paper's ρ-merge and orphan-assignment post-processing.
//   - The two baselines the paper compares against: LFK (Lancichinetti,
//     Fortunato, Kertész 2008) and CFinder (Palla et al. 2005, k-clique
//     percolation).
//   - The benchmark generators: LFR graphs (with the overlapping on/om
//     extension), the paper's daisy trees, a density-matched synthetic
//     substitute for the Wikipedia link graph, and general R-MAT,
//     Barabási–Albert and G(n,m) generators.
//   - The paper's quality metrics ρ (eq. V.1) and Θ (eq. V.2), plus
//     best-match F1, the Omega index and the overlapping NMI
//     (Lancichinetti–Fortunato–Kertész 2009) as cross-checks.
//
// A minimal end-to-end run:
//
//	b := repro.NewGraphBuilder(8)
//	// ... b.AddEdge(u, v) for every edge ...
//	res, err := repro.OCA(b.Build(), repro.OCAOptions{Seed: 1})
//	if err != nil { ... }
//	for _, community := range res.Cover.Communities { ... }
//
// Beyond batch runs, the package supports the paper's titular *search*
// workload: Index builds an inverted node→community index over a cover
// (CSR-style, O(memberships) Lookup, safe for concurrent readers), and
// cmd/ocad is a long-running daemon serving it over HTTP — GET
// /v1/node/{id}/communities answers "which communities does this node
// belong to?", POST /v1/search runs one seeded community search with
// per-request options against a bounded pool of reusable search states,
// GET /v1/cover/stats summarizes the served cover, and GET /healthz
// reports liveness. The served graph is live: POST /v1/edges mutations
// are applied copy-on-write (GraphDelta) by a background worker that
// re-runs OCA warm-started from unaffected communities and atomically
// swaps in the next generation-numbered snapshot, while POST
// /v1/nodes/communities answers batch lookups from a single snapshot
// and GET /v1/cover/export streams the cover as NDJSON. See README.md
// for curl examples.
//
// The daemon scales out: with -shards K the graph and its cover are
// partitioned across K node-disjoint shards with ghost halos (boundary
// communities score exactly as unsharded), each kept live by its own
// refresh worker behind a fan-out router, and the same deployment runs
// multi-process — one `ocad -serve-shard i` process per shard behind a
// versioned wire protocol, with an `ocad -shard-addrs ...` router
// serving the unchanged public API over mirrored per-shard snapshots.
// docs/ARCHITECTURE.md maps the layers and seams; docs/PROTOCOL.md is
// the normative wire protocol.
//
// The experiment harness reproducing every table and figure of the
// paper's Section V lives in cmd/ocabench; runnable demonstrations live
// under examples/. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
package repro
