package shard

// Publishes replayed without a worker. A Link is one publish described
// completely — its table growth and net edge operations, and its cover
// patch with the generation's scalar facts — so a peer holding the
// predecessor can rebuild the generation from the link alone. The
// Worker keeps the newest links in a Ring; the transport ships them to
// mirrors as a WAL excerpt (EncodeChain) instead of whole snapshots.
// Fold is the one applier and FoldLog the one driver that replays
// publishes from WAL records — a recovered log tail (persist) or a
// mirror's chain (FoldChain).

import (
	"fmt"
	"sync"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
)

// ReconcileTable is the one table-growth rule: it checks a shipped
// translation-table update — global ids for local ids [base,
// base+len(newLocals)) — against table (table[l] is local l's global
// id; lookup is its inverse) and returns the entries it appends.
// Entries below len(table) are re-ships and must agree with it; a base
// past the end would leave a gap; a new entry must not name a global id
// the table, or an earlier entry of the same update, already maps. Each
// violation is an ErrTableConflict: a second writer grew the table.
func ReconcileTable(table []int32, lookup func(int32) (int32, bool), base int, newLocals []int32) ([]int32, error) {
	cur := len(table)
	if base < 0 || base > cur {
		return nil, fmt.Errorf("%w: batch base %d beyond table length %d", ErrTableConflict, base, cur)
	}
	overlap := min(cur-base, len(newLocals))
	for i := 0; i < overlap; i++ {
		if table[base+i] != newLocals[i] {
			return nil, fmt.Errorf("%w at local %d: have global %d, batch ships %d",
				ErrTableConflict, base+i, table[base+i], newLocals[i])
		}
	}
	fresh := newLocals[overlap:]
	var seen map[int32]int
	if len(fresh) > 1 {
		seen = make(map[int32]int, len(fresh))
	}
	for i, gv := range fresh {
		if l, ok := lookup(gv); ok {
			return nil, fmt.Errorf("%w: global %d already mapped to local %d", ErrTableConflict, gv, l)
		}
		if j, dup := seen[gv]; dup {
			return nil, fmt.Errorf("%w: global %d shipped for locals %d and %d", ErrTableConflict, gv, cur+j, cur+i)
		}
		if seen != nil {
			seen[gv] = i
		}
	}
	return fresh, nil
}

// Fold replays publishes onto a generation without a worker: one
// graph.Delta over every publish's edge operations, the cover patches
// applied in order, the translation table grown by ReconcileTable. Each
// publish is validated before any of it is applied — the bytes come from
// a log or a peer, and a checksum vouches for the bytes, not for what
// they name — so a Step that fails leaves the fold at the previous
// publish. FoldLog drives it over WAL records.
type Fold struct {
	delta    *graph.Delta
	n        int // node count of the last folded generation
	maxNodes int
	cover    *cover.Cover
	gen      uint64
	table    []int32
	index    map[int32]int32 // global → local over table; built on first growth
	last     *refresh.Patch
}

// NewFold starts a fold at generation gen: graph g, cover cv and
// translation table table (nil at K=1), with growth capped at maxNodes.
// None of them is modified.
func NewFold(g *graph.Graph, cv *cover.Cover, gen uint64, table []int32, maxNodes int) *Fold {
	return &Fold{
		delta: graph.NewDelta(g), n: g.N(), maxNodes: max(maxNodes, g.N()),
		cover: cv, gen: gen, table: table[:len(table):len(table)],
	}
}

// Step folds publish gen, which must follow the last folded generation:
// the edge batches it accepted, in order (their table growth included),
// and the cover patch it published. nodes, when positive, is the node
// count the publish declares it grew to — a link's — and bounds its
// operations; otherwise the batches grow the node set as
// refresh.ValidateBatch decides, up to the fold's cap.
func (f *Fold) Step(gen uint64, batches []Batch, nodes int, p *refresh.Patch) error {
	if gen != f.gen+1 {
		return fmt.Errorf("shard: fold: publish %d does not follow generation %d", gen, f.gen)
	}
	n, limit := f.n, f.maxNodes
	if nodes > 0 {
		if nodes < n || nodes > f.maxNodes {
			return fmt.Errorf("shard: fold: publish %d declares %d nodes, want [%d, %d]", gen, nodes, n, f.maxNodes)
		}
		n, limit = nodes, nodes
	}
	tableLen := len(f.table)
	for _, b := range batches {
		var err error
		if n, err = refresh.ValidateBatch(b.Add, b.Remove, n, limit); err != nil {
			f.truncateTable(tableLen)
			return fmt.Errorf("shard: fold: publish %d: %w", gen, err)
		}
		fresh, err := ReconcileTable(f.table, f.lookup, b.Base, b.NewLocals)
		if err != nil {
			f.truncateTable(tableLen)
			return fmt.Errorf("shard: fold: publish %d: %w", gen, err)
		}
		for _, gv := range fresh {
			if f.index != nil {
				f.index[gv] = int32(len(f.table))
			}
			f.table = append(f.table, gv)
		}
	}
	if err := patchFits(p, f.cover.Len(), n); err != nil {
		f.truncateTable(tableLen)
		return fmt.Errorf("shard: fold: publish %d: %w", gen, err)
	}
	f.delta.GrowTo(n)
	for _, b := range batches {
		// Validated above against the same bounds: the Delta's own checks
		// cannot fail.
		for _, e := range b.Add {
			_ = f.delta.AddEdge(e[0], e[1])
		}
		for _, e := range b.Remove {
			_ = f.delta.RemoveEdge(e[0], e[1])
		}
	}
	f.cover = p.ApplyCover(f.cover)
	f.n, f.gen, f.last = n, gen, p
	return nil
}

// lookup resolves a global id in the fold's table, indexing it on first
// use (most folds grow nothing and never pay for the map).
func (f *Fold) lookup(gv int32) (int32, bool) {
	if f.index == nil {
		f.index = make(map[int32]int32, len(f.table))
		for l, g := range f.table {
			f.index[g] = int32(l)
		}
	}
	l, ok := f.index[gv]
	return l, ok
}

// truncateTable undoes a failed Step's table growth.
func (f *Fold) truncateTable(n int) {
	for _, gv := range f.table[n:] {
		delete(f.index, gv)
	}
	f.table = f.table[:n]
}

// Gen is the last folded generation.
func (f *Fold) Gen() uint64 { return f.gen }

// Last is the last folded publish's patch (nil before the first Step).
func (f *Fold) Last() *refresh.Patch { return f.last }

// Graph applies the folded edge operations: one CSR build however many
// publishes were folded (the base graph itself when they net out).
func (f *Fold) Graph() *graph.Graph { return f.delta.Apply() }

// Cover is the last folded generation's cover.
func (f *Fold) Cover() *cover.Cover { return f.cover }

// Table is the translation table after the last folded publish.
func (f *Fold) Table() []int32 { return f.table[:len(f.table):len(f.table)] }

// patchFits validates a patch against the cover it is about to be
// applied to (prevLen communities) and the node range of the generation
// it produces: removed ids and each community's members in range and
// strictly ascending.
func patchFits(p *refresh.Patch, prevLen, n int) error {
	prev := int32(-1)
	for _, id := range p.Removed {
		if id <= prev || int(id) >= prevLen {
			return fmt.Errorf("patch removes community %d of %d (after %d)", id, prevLen, prev)
		}
		prev = id
	}
	for i, c := range p.Fresh {
		prev = -1
		for _, v := range c {
			if v <= prev || int(v) >= n {
				return fmt.Errorf("patch community %d names member %d of %d (after %d)", i, v, n, prev)
			}
			prev = v
		}
	}
	return nil
}

// Link is one publish as a mirror replays it: the table growth and
// edge operations (Batch: Base is the predecessor's node count,
// NewLocals the entries for the locals the publish grew the graph by,
// Add and Remove its net operations), the cover patch, and the
// generation and operation count it produced.
type Link struct {
	Batch
	Patch    *refresh.Patch
	Gen, Seq uint64
}

// LinkOf describes the published generation snap as a link; table is
// the worker's translation table, at least snap's node count long. Nil
// when snap has no patch: the generation no rebuild produced — initial,
// restored, mirrored — has no predecessor to be replayed from.
func LinkOf(snap *refresh.Snapshot, table []int32) *Link {
	p := snap.Patch
	if p == nil {
		return nil
	}
	n := snap.Graph.N()
	return &Link{
		Batch: Batch{Base: p.PrevNodes, NewLocals: table[p.PrevNodes:n:n], Add: p.Add, Remove: p.Remove},
		Patch: p, Gen: snap.Gen, Seq: snap.Seq,
	}
}

// size estimates what the link costs on the wire, in the units of
// FullSize.
func (l *Link) size() int {
	s := 64 + 8*(len(l.Add)+len(l.Remove)) + 4*(len(l.NewLocals)+len(l.Patch.Removed))
	for _, c := range l.Patch.Fresh {
		s += 4 * (len(c) + 1)
	}
	return s
}

// FullSize estimates what the full transfer of snap costs: its CSR
// graph, a table as long as the graph, and its cover.
func FullSize(snap *refresh.Snapshot) int {
	s := 64 + 8*(snap.Graph.N()+1) + 4*2*int(snap.Graph.M()) + 4*snap.Graph.N()
	for _, c := range snap.Cover.Communities {
		s += 4 * (len(c) + 1)
	}
	return s
}

// Ring holds the links of the newest publishes, oldest first, for as
// long as together they cost less than the newest generation's full
// transfer: a mirror further behind than that is cheaper to resend
// whole, so its request is a miss. The bound is the data's own — there
// is nothing to tune. Safe for concurrent use; the zero Ring is empty.
type Ring struct {
	mu    sync.Mutex
	links []*Link
	sizes []int
	bytes int
}

// Push appends the link of the generation just published, whose full
// transfer costs full, dropping the oldest links past the bound. A nil
// link, or one that does not follow the newest held, empties the ring
// first: the chain through it is broken.
func (r *Ring) Push(l *Link, full int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l == nil || (len(r.links) > 0 && l.Gen != r.links[len(r.links)-1].Gen+1) {
		r.links, r.sizes, r.bytes = nil, nil, 0
		if l == nil {
			return
		}
	}
	sz := l.size()
	r.links = append(r.links, l)
	r.sizes = append(r.sizes, sz)
	r.bytes += sz
	drop := 0
	for r.bytes > full && drop < len(r.links) {
		r.bytes -= r.sizes[drop]
		drop++
	}
	if drop > 0 {
		// Copy rather than reslice, so dropped links are released.
		r.links = append([]*Link(nil), r.links[drop:]...)
		r.sizes = append([]int(nil), r.sizes[drop:]...)
	}
}

// Reset empties the ring.
func (r *Ring) Reset() { r.Push(nil, 0) }

// Chain returns the links of generations since+1 … upTo, in order (none
// when since == upTo), or false when the ring does not hold them all.
func (r *Ring) Chain(since, upTo uint64) ([]*Link, bool) {
	if since >= upTo {
		return nil, since == upTo
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.links) == 0 {
		return nil, false
	}
	first := r.links[0].Gen
	if since+1 < first || upTo >= first+uint64(len(r.links)) {
		return nil, false
	}
	return append([]*Link(nil), r.links[since+1-first:upTo+1-first]...), true
}
