package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/cpm"
	"repro/internal/daisy"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/lfk"
	"repro/internal/lfr"
	"repro/internal/metrics"
	"repro/internal/postprocess"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/summarize"
	"repro/internal/synth"
)

// Graph is an immutable simple undirected graph in CSR form. Build one
// with NewGraphBuilder or ReadGraph, or generate one with the benchmark
// generators below.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces an immutable Graph;
// duplicate edges and self loops are dropped at Build time.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n nodes (ids 0..n-1).
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphStats summarizes a graph (degrees, components, optional triangle
// count).
type GraphStats = graph.Stats

// Stats computes summary statistics of g. Triangle counting costs
// O(m^1.5) and is optional.
func Stats(g *Graph, countTriangles bool) GraphStats {
	return graph.ComputeStats(g, countTriangles)
}

// ReadGraph parses a text edge list (one "u v" pair per line, optional
// "# nodes N edges M" header).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// GraphReadLimits bound what a parse may materialize (node and edge
// counts); use them when reading untrusted input, where a few bytes can
// declare a multi-gigabyte graph.
type GraphReadLimits = graph.ReadLimits

// ReadGraphLimits is ReadGraph with hard caps on the declared or
// implied graph size.
func ReadGraphLimits(r io.Reader, lim GraphReadLimits) (*Graph, error) {
	return graph.ReadEdgeListLimits(r, lim)
}

// GraphDelta accumulates edge additions and removals against an
// existing immutable Graph and applies them in one copy-on-write pass —
// the O(n + m + Δ log Δ) rebuild path behind live cover refresh. The
// base graph is never mutated. GrowTo lets the delta extend the node
// set, the path behind serving graphs that keep gaining nodes.
type GraphDelta = graph.Delta

// NewGraphDelta returns an empty delta over g.
func NewGraphDelta(g *Graph) *GraphDelta { return graph.NewDelta(g) }

// ShardPiece is one node-disjoint piece of a partitioned graph: the
// nodes assigned to that shard (global id ≡ shard mod K) plus a ghost
// halo of their cross-shard neighbors, renumbered to a dense local id
// space with a local→global translation table. Because the halo is the
// full induced subgraph on owned ∪ ghost nodes, a community search
// seeded at an owned node sees its complete boundary neighborhood —
// the partitioning behind the ocad daemon's -shards mode.
type ShardPiece = shard.Piece

// PartitionGraph deterministically splits g into k node-disjoint
// pieces under the modulo-k partition, each with its ghost halo.
func PartitionGraph(g *Graph, k int) ([]ShardPiece, error) {
	return shard.Split(g, k)
}

// WriteGraph writes g in the format ReadGraph parses.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Community is a sorted set of node ids.
type Community = cover.Community

// Cover is a family of (possibly overlapping) communities.
type Cover = cover.Cover

// NewCommunity copies, sorts and deduplicates the given members.
func NewCommunity(members []int32) Community { return cover.NewCommunity(members) }

// ReadCover parses a community file (one community per line, members as
// space-separated node ids).
func ReadCover(r io.Reader) (*Cover, error) { return cover.Read(r) }

// CommunityQuality summarizes one community's structural quality
// (density, conductance, internal degree, local mixing).
type CommunityQuality = cover.Quality

// AnalyzeCommunity computes structural quality measures of c in g.
func AnalyzeCommunity(g *Graph, c Community) CommunityQuality {
	return cover.Analyze(g, c)
}

// AnalyzeCover computes structural quality measures for every community.
func AnalyzeCover(g *Graph, cv *Cover) []CommunityQuality {
	return cover.AnalyzeCover(g, cv)
}

// NodeCommunityIndex is an immutable inverted node→community index over
// a Cover: the serving-side answer to the paper's titular query, "which
// communities does this node belong to?". Built once per cover
// (CSR-style flat slices), it answers lookups in O(memberships of the
// node) and is safe for any number of concurrent readers. The ocad
// query daemon serves its membership endpoint through this index.
type NodeCommunityIndex = index.Membership

// Index builds the inverted node→community index for cv over a graph
// with n nodes.
func Index(cv *Cover, n int) *NodeCommunityIndex { return index.Build(cv, n) }

// Lookup returns the ascending community indices containing v, as a
// read-only view. Equivalent to ix.Communities(v).
func Lookup(ix *NodeCommunityIndex, v int32) []int32 { return ix.Communities(v) }

// DOTOptions configure WriteDOT.
type DOTOptions = cover.DOTOptions

// WriteDOT renders the graph and its communities as a Graphviz dot
// document (community colors, double periphery on overlap nodes) — the
// repository's way of drawing the paper's Figure 4 pictures.
func WriteDOT(w io.Writer, g *Graph, cv *Cover, opt DOTOptions) error {
	return cover.WriteDOT(w, g, cv, opt)
}

// WriteCover writes cv in the format ReadCover parses.
func WriteCover(w io.Writer, cv *Cover) error { return cover.Write(w, cv) }

// OCAOptions configure OCA; the zero value gives the paper's defaults.
type OCAOptions = core.Options

// OCAHalting is the cross-seed stopping policy of OCA.
type OCAHalting = core.Halting

// OCAResult is the outcome of an OCA run.
type OCAResult = core.Result

// SpectralOptions tune the Lanczos run computing c = -1/λmin: its step
// cap, its relative residual tolerance and its start-vector seed.
type SpectralOptions = spectral.Options

// OCA runs the paper's Overlapping Community Search on g.
func OCA(g *Graph, opt OCAOptions) (*OCAResult, error) { return core.Run(g, opt) }

// Fitness evaluates the paper's directed-Laplacian fitness L for a set
// of s nodes spanning m internal edges under inner-product parameter c.
func Fitness(s int, m int64, c float64) float64 { return core.L(s, m, c) }

// LambdaMin estimates the most negative adjacency eigenvalue of g.
func LambdaMin(g *Graph, opt SpectralOptions) (float64, error) {
	return spectral.LambdaMin(g, opt)
}

// CParameter returns the paper's inner-product parameter c = -1/λmin,
// clamped to (0, 0.999].
func CParameter(g *Graph, opt SpectralOptions) (float64, error) {
	return spectral.C(g, opt)
}

// LFKOptions configure the LFK baseline.
type LFKOptions = lfk.Options

// LFKResult is the outcome of an LFK run.
type LFKResult = lfk.Result

// LFK runs the Lancichinetti–Fortunato–Kertész baseline on g.
func LFK(g *Graph, opt LFKOptions) (*LFKResult, error) { return lfk.Run(g, opt) }

// CPMOptions configure k-clique percolation.
type CPMOptions = cpm.Options

// CPMResult is the outcome of a CPM/CFinder run.
type CPMResult = cpm.Result

// CPM runs k-clique percolation (fast formulation) on g.
func CPM(g *Graph, opt CPMOptions) (*CPMResult, error) { return cpm.Run(g, opt) }

// CFinder runs the CFinder-style pipeline (maximal cliques + quadratic
// overlap percolation). Identical output to CPM, but with the cost
// profile of the original tool; use CPM unless reproducing timings.
func CFinder(g *Graph, opt CPMOptions) (*CPMResult, error) { return cpm.RunCFinder(g, opt) }

// Rho is the paper's community similarity (eq. V.1), equal to the
// Jaccard index of the member sets. Total over all inputs: nil and
// empty communities are interchangeable, two empty sets score 1, an
// empty set against a non-empty one scores 0 — never NaN.
func Rho(c, d Community) float64 { return metrics.Rho(c, d) }

// Theta is the paper's community-structure suitability (eq. V.2) of the
// observed cover with respect to the reference cover.
func Theta(ref, obs *Cover) float64 { return metrics.Theta(ref, obs) }

// BestMatchF1 is the symmetric average best-match F1 between two covers.
func BestMatchF1(a, b *Cover) float64 { return metrics.BestMatchF1(a, b) }

// OmegaIndex is the chance-corrected pairwise co-membership agreement of
// two covers over n nodes (overlap-aware; O(n²) pairs).
func OmegaIndex(a, b *Cover, n int) float64 { return metrics.OmegaIndex(a, b, n) }

// NMI is the overlapping Normalized Mutual Information (Lancichinetti–
// Fortunato–Kertész 2009) of two covers over n nodes: 1 for identical
// covers, 0 for independent ones. The standard score for comparing
// covers whose communities may overlap.
func NMI(a, b *Cover, n int) float64 { return metrics.NMI(a, b, n) }

// MergeThreshold is the default ρ at which communities merge.
const MergeThreshold = postprocess.DefaultMergeThreshold

// MergeCommunities repeatedly unions communities with ρ ≥ threshold
// (Section IV's "too similar" post-processing).
func MergeCommunities(cv *Cover, threshold float64) *Cover {
	return postprocess.Merge(cv, threshold)
}

// OrphanOptions configure AssignOrphans.
type OrphanOptions = postprocess.OrphanOptions

// AssignOrphans adds every uncovered node of g to the community holding
// most of its neighbors (Section IV's orphan rule).
func AssignOrphans(g *Graph, cv *Cover, opt OrphanOptions) *Cover {
	return postprocess.AssignOrphans(g, cv, opt)
}

// LFRParams configure the LFR benchmark generator.
type LFRParams = lfr.Params

// LFRBenchmark is a generated LFR instance with its planted communities.
type LFRBenchmark = lfr.Benchmark

// GenerateLFR builds an LFR benchmark graph with ground truth.
func GenerateLFR(p LFRParams) (*LFRBenchmark, error) { return lfr.Generate(p) }

// MeasureMixing returns the realized mixing parameter of a generated
// instance (fraction of edge endpoints leaving all their communities).
func MeasureMixing(g *Graph, memberships [][]int32) float64 {
	return lfr.MeasureMixing(g, memberships)
}

// DaisyParams describe one daisy flower of the paper's overlapping
// benchmark.
type DaisyParams = daisy.Params

// DaisyTreeParams describe a daisy tree.
type DaisyTreeParams = daisy.TreeParams

// DaisyBenchmark is a generated daisy tree with its planted communities.
type DaisyBenchmark = daisy.Benchmark

// GenerateDaisyTree builds a daisy tree benchmark.
func GenerateDaisyTree(tp DaisyTreeParams) (*DaisyBenchmark, error) {
	return daisy.Generate(tp)
}

// DefaultDaisyParams returns the harness defaults for daisy flowers.
func DefaultDaisyParams() DaisyParams { return daisy.DefaultParams() }

// GenerateBarabasiAlbert builds a preferential-attachment graph with n
// nodes and m edges per arriving node.
func GenerateBarabasiAlbert(n, m int, seed int64) (*Graph, error) {
	return synth.BarabasiAlbert(n, m, seed)
}

// GenerateGNM builds a uniform random simple graph with exactly m edges.
func GenerateGNM(n int, m int64, seed int64) (*Graph, error) {
	return synth.GNM(n, m, seed)
}

// RMATParams configure the R-MAT generator.
type RMATParams = synth.RMATParams

// GenerateRMAT builds an R-MAT graph (2^Scale nodes).
func GenerateRMAT(p RMATParams) (*Graph, error) { return synth.RMAT(p) }

// GenerateWikipediaLike builds the Table-I Wikipedia substitute: a
// heavy-tailed graph with planted overlapping communities matching the
// paper's edge/node ratio (see DESIGN.md §3.6).
func GenerateWikipediaLike(scale int, seed int64) (*Graph, error) {
	return synth.WikipediaLike(scale, seed)
}

// HierarchyOptions configure BuildHierarchy.
type HierarchyOptions = hierarchy.Options

// HierarchyLevel is one layer of a community hierarchy.
type HierarchyLevel = hierarchy.Level

// BuildHierarchy implements the paper's §VI future work: it relates the
// communities of a cover through their cross edges and shared members,
// then reapplies OCA on the quotient graph, yielding successively
// coarser community levels (level 0 is the input cover).
func BuildHierarchy(g *Graph, base *Cover, opt HierarchyOptions) ([]HierarchyLevel, error) {
	return hierarchy.Build(g, base, opt)
}

// GraphSummary is a lossless community-based compression of a graph
// (the paper's §VI "graph summarization" future work).
type GraphSummary = summarize.Summary

// Summarize compresses g under the given community cover; the result
// reconstructs g exactly via ReconstructGraph.
func Summarize(g *Graph, cv *Cover) (*GraphSummary, error) {
	return summarize.Build(g, cv)
}

// ReconstructGraph rebuilds the exact original graph from a summary.
func ReconstructGraph(s *GraphSummary) *Graph { return summarize.Reconstruct(s) }
