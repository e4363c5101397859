// The versioned partition map: the epoch-numbered node-range→shard
// assignment that generalizes the fixed modulo-K partition. The base
// assignment stays v mod K; a map carries zero or more range overrides
// ("nodes in [Lo, Hi) whose base class is From are owned by To"), so a
// live rebalance is one new override — and moving a range back home is
// the override's removal. Epochs order maps totally: every flip
// increments the epoch, the wire protocol carries it next to the
// (shard, generation) vectors, and recovery rejoins at the persisted
// epoch. See docs/PROTOCOL.md "Partition map & rebalancing".

package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Range is one override of the base modulo-K assignment: global node
// ids v with Lo <= v < Hi and v mod K == From are owned by shard To.
// Keeping the base class in the key gives every override a single
// donor, which is what makes a two-generation handoff well-defined.
type Range struct {
	Lo   int32 `json:"lo"`
	Hi   int32 `json:"hi"`
	From int   `json:"from"`
	To   int   `json:"to"`
}

// contains reports whether the range covers global id v of its class.
func (r Range) contains(v int32) bool { return v >= r.Lo && v < r.Hi }

// PartitionMap is a versioned node→shard assignment. The zero value is
// invalid; use NewPartitionMap. Maps are immutable once published —
// Move returns a successor at Epoch+1 — so one map pointer may be read
// lock-free by any number of goroutines.
type PartitionMap struct {
	// Epoch orders maps totally; the base modulo-K map is epoch 0.
	Epoch uint64 `json:"epoch"`
	// K is the partition width (the shard count).
	K int `json:"k"`
	// Ranges are the overrides, sorted by (From, Lo), disjoint per
	// class. Empty means the pure modulo-K assignment.
	Ranges []Range `json:"ranges,omitempty"`
}

// NewPartitionMap returns the epoch-0 pure modulo-K map.
func NewPartitionMap(k int) (*PartitionMap, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: K=%d must be at least 1", k)
	}
	return &PartitionMap{K: k}, nil
}

// ShardOf returns the shard owning global node id v: the base class
// v mod K unless an override range covers it. Negative ids are the
// caller's responsibility to reject.
func (m *PartitionMap) ShardOf(v int32) int {
	base := int(v % int32(m.K))
	for _, r := range m.Ranges {
		if r.From == base && r.contains(v) {
			return r.To
		}
	}
	return base
}

// Validate rejects malformed maps: a non-positive K, an inverted or
// empty range (Lo >= Hi — a gap in the interval algebra), shard
// indexes outside [0, K), a self-move (From == To), and two ranges of
// the same class that overlap (two owners for one node).
func (m *PartitionMap) Validate() error {
	if m.K < 1 {
		return fmt.Errorf("shard: partition map K=%d must be at least 1", m.K)
	}
	byClass := make(map[int][]Range, len(m.Ranges))
	for i, r := range m.Ranges {
		if r.Lo < 0 || r.Lo >= r.Hi {
			return fmt.Errorf("shard: partition map range %d: [%d, %d) is empty or inverted", i, r.Lo, r.Hi)
		}
		if r.From < 0 || r.From >= m.K || r.To < 0 || r.To >= m.K {
			return fmt.Errorf("shard: partition map range %d: shards %d→%d outside [0, %d)", i, r.From, r.To, m.K)
		}
		if r.From == r.To {
			return fmt.Errorf("shard: partition map range %d: self-move of class %d", i, r.From)
		}
		byClass[r.From] = append(byClass[r.From], r)
	}
	for class, rs := range byClass {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
		for i := 1; i < len(rs); i++ {
			if rs[i].Lo < rs[i-1].Hi {
				return fmt.Errorf("shard: partition map: class %d ranges [%d, %d) and [%d, %d) overlap",
					class, rs[i-1].Lo, rs[i-1].Hi, rs[i].Lo, rs[i].Hi)
			}
		}
	}
	return nil
}

// Clone returns a deep copy (the ranges slice is not shared).
func (m *PartitionMap) Clone() *PartitionMap {
	return &PartitionMap{Epoch: m.Epoch, K: m.K, Ranges: append([]Range(nil), m.Ranges...)}
}

// firstOfClass returns the smallest v >= lo with v mod K == class, in
// int64 — lo + rem overflows int32 when lo is within K of MaxInt32,
// and a negative id would make ShardOf report a bogus owner for ranges
// reaching the top of the id space.
func firstOfClass(lo int32, class, k int) int64 {
	rem := int64(class) - int64(lo%int32(k))
	if rem < 0 {
		rem += int64(k)
	}
	return int64(lo) + rem
}

// hasNodeOfClass reports whether [lo, hi) contains a node of class.
func hasNodeOfClass(lo, hi int32, class, k int) bool {
	return firstOfClass(lo, class, k) < int64(hi)
}

// Move returns the successor map (Epoch+1) reassigning every node of
// [lo, hi) currently owned by shard from to shard to. It composes with
// prior overrides — re-migrating an already-moved range splits or
// replaces the old override, and moving a range back to its base class
// removes it — keeping the map canonical (per-class disjoint, only
// overrides that differ from the base). It fails when shard from owns
// no node in the range (nothing to hand off).
func (m *PartitionMap) Move(lo, hi int32, from, to int) (*PartitionMap, error) {
	if lo < 0 || lo >= hi {
		return nil, fmt.Errorf("shard: move range [%d, %d) is empty or inverted", lo, hi)
	}
	if from < 0 || from >= m.K || to < 0 || to >= m.K {
		return nil, fmt.Errorf("shard: move %d→%d outside [0, %d)", from, to, m.K)
	}
	if from == to {
		return nil, fmt.Errorf("shard: move %d→%d is a self-move", from, to)
	}
	next := &PartitionMap{Epoch: m.Epoch + 1, K: m.K}
	moved := false
	for class := 0; class < m.K; class++ {
		// Elementary intervals of this class: every boundary any
		// override (or the move itself) introduces.
		cuts := []int32{0, math.MaxInt32}
		if lo < math.MaxInt32 {
			cuts = append(cuts, lo)
		}
		cuts = append(cuts, hi)
		for _, r := range m.Ranges {
			if r.From == class {
				cuts = append(cuts, r.Lo, r.Hi)
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		var pieces []Range // desired overrides for this class, pre-merge
		for i := 1; i < len(cuts); i++ {
			a, b := cuts[i-1], cuts[i]
			if a >= b || !hasNodeOfClass(a, b, class, m.K) {
				continue
			}
			// The int32 cast is safe: hasNodeOfClass guaranteed the
			// first node of the class sits below b <= MaxInt32.
			owner := m.ShardOf(int32(firstOfClass(a, class, m.K)))
			if owner == from && a >= lo && b <= hi {
				owner = to
				moved = true
			}
			if owner == class {
				continue // base assignment needs no override
			}
			if n := len(pieces); n > 0 && pieces[n-1].Hi == a && pieces[n-1].To == owner {
				pieces[n-1].Hi = b // merge adjacent equal-owner intervals
				continue
			}
			pieces = append(pieces, Range{Lo: a, Hi: b, From: class, To: owner})
		}
		next.Ranges = append(next.Ranges, pieces...)
	}
	if !moved {
		return nil, fmt.Errorf("shard: shard %d owns no node in [%d, %d)", from, lo, hi)
	}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	return next, nil
}

// Equal reports structural equality (epoch included).
func (m *PartitionMap) Equal(o *PartitionMap) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Epoch != o.Epoch || m.K != o.K || len(m.Ranges) != len(o.Ranges) {
		return false
	}
	for i := range m.Ranges {
		if m.Ranges[i] != o.Ranges[i] {
			return false
		}
	}
	return true
}

// AffectsShard reports whether swapping old for m changes shard s's
// owned node set — the test a worker runs to decide whether a map
// install needs a forced ownership rebuild. Conservative: it compares
// the override lists touching s, never enumerating nodes.
func (m *PartitionMap) AffectsShard(old *PartitionMap, s int) bool {
	touch := func(pm *PartitionMap) []Range {
		var out []Range
		for _, r := range pm.Ranges {
			if r.From == s || r.To == s {
				out = append(out, r)
			}
		}
		return out
	}
	a, b := touch(old), touch(m)
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// Binary wire/persistence encoding: magic "OCPM", version byte, epoch
// u64, K u32, range count u32, then per range Lo i32, Hi i32, From u32,
// To u32, all little-endian. Decode validates fully (FuzzPartitionMap
// hammers this path), so a corrupt or adversarial map never installs.

// MagicPMap opens every encoded partition map.
var MagicPMap = [4]byte{'O', 'C', 'P', 'M'}

// VersionPMap is the encoding version this build reads and writes.
const VersionPMap = 1

// maxPMapRanges caps the declared range count when decoding so a
// corrupt header cannot demand an absurd allocation.
const maxPMapRanges = 1 << 20

// Encode returns the canonical binary encoding.
func (m *PartitionMap) Encode() []byte {
	var b bytes.Buffer
	b.Write(MagicPMap[:])
	b.WriteByte(VersionPMap)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], m.Epoch)
	b.Write(scratch[:8])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(m.K))
	b.Write(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(m.Ranges)))
	b.Write(scratch[:4])
	for _, r := range m.Ranges {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(r.Lo))
		b.Write(scratch[:4])
		binary.LittleEndian.PutUint32(scratch[:4], uint32(r.Hi))
		b.Write(scratch[:4])
		binary.LittleEndian.PutUint32(scratch[:4], uint32(r.From))
		b.Write(scratch[:4])
		binary.LittleEndian.PutUint32(scratch[:4], uint32(r.To))
		b.Write(scratch[:4])
	}
	return b.Bytes()
}

// DecodePartitionMap parses and validates an encoded map. Trailing
// bytes, short buffers, bad magic/version and any Validate violation
// (overlapping or gapped ranges included) are errors.
func DecodePartitionMap(data []byte) (*PartitionMap, error) {
	const headerLen = 4 + 1 + 8 + 4 + 4
	if len(data) < headerLen {
		return nil, fmt.Errorf("shard: partition map truncated at %d bytes", len(data))
	}
	if !bytes.Equal(data[:4], MagicPMap[:]) {
		return nil, fmt.Errorf("shard: partition map bad magic %q", data[:4])
	}
	if data[4] != VersionPMap {
		return nil, fmt.Errorf("shard: partition map version %d, this build reads %d", data[4], VersionPMap)
	}
	m := &PartitionMap{
		Epoch: binary.LittleEndian.Uint64(data[5:13]),
		K:     int(int32(binary.LittleEndian.Uint32(data[13:17]))),
	}
	n := binary.LittleEndian.Uint32(data[17:21])
	if n > maxPMapRanges {
		return nil, fmt.Errorf("shard: partition map declares %d ranges (max %d)", n, maxPMapRanges)
	}
	body := data[headerLen:]
	if len(body) != int(n)*16 {
		return nil, fmt.Errorf("shard: partition map body %d bytes, want %d for %d ranges", len(body), int(n)*16, n)
	}
	if n > 0 {
		m.Ranges = make([]Range, n) // nil when empty, as NewPartitionMap and Clone leave it
	}
	for i := range m.Ranges {
		off := i * 16
		m.Ranges[i] = Range{
			Lo:   int32(binary.LittleEndian.Uint32(body[off:])),
			Hi:   int32(binary.LittleEndian.Uint32(body[off+4:])),
			From: int(int32(binary.LittleEndian.Uint32(body[off+8:]))),
			To:   int(int32(binary.LittleEndian.Uint32(body[off+12:]))),
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
