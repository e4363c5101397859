package index

import (
	"testing"

	"repro/internal/cover"
)

func TestCoverageCounts(t *testing.T) {
	cv := cover.NewCover([]cover.Community{
		{0, 1, 2},
		{2, 3},
		{2, 5},
	})
	ix := Build(cv, 7)

	covered, overlapped, memberships, maxDeg := ix.CoverageCounts(nil)
	if covered != 5 || overlapped != 1 || memberships != 7 || maxDeg != 3 {
		t.Errorf("all nodes: (%d, %d, %d, %d), want (5, 1, 7, 3)", covered, overlapped, memberships, maxDeg)
	}

	// Even nodes only: 0, 2, 4, 6 → covered {0, 2}, overlapped {2},
	// memberships 1 + 3, largest degree node 2's 3.
	even := func(v int32) bool { return v%2 == 0 }
	covered, overlapped, memberships, maxDeg = ix.CoverageCounts(even)
	if covered != 2 || overlapped != 1 || memberships != 4 || maxDeg != 3 {
		t.Errorf("even nodes: (%d, %d, %d, %d), want (2, 1, 4, 3)", covered, overlapped, memberships, maxDeg)
	}

	// Odd nodes only: 1, 3, 5 are in one community each, so the maximum
	// is 1 although node 2 (not kept) is in three.
	odd := func(v int32) bool { return v%2 == 1 }
	covered, overlapped, memberships, maxDeg = ix.CoverageCounts(odd)
	if covered != 3 || overlapped != 0 || memberships != 3 || maxDeg != 1 {
		t.Errorf("odd nodes: (%d, %d, %d, %d), want (3, 0, 3, 1)", covered, overlapped, memberships, maxDeg)
	}

	// A predicate selecting nothing counts nothing.
	covered, overlapped, memberships, maxDeg = ix.CoverageCounts(func(int32) bool { return false })
	if covered != 0 || overlapped != 0 || memberships != 0 || maxDeg != 0 {
		t.Errorf("empty selection: (%d, %d, %d, %d), want zeros", covered, overlapped, memberships, maxDeg)
	}

	// Uncovered nodes only (4 and 6): maximum 0.
	if _, _, _, maxDeg = ix.CoverageCounts(func(v int32) bool { return v == 4 || v == 6 }); maxDeg != 0 {
		t.Errorf("uncovered selection: max degree %d, want 0", maxDeg)
	}
}
