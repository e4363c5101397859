package cover

import (
	"math/rand"
	"testing"
)

// refStats is Stats as a map tally: the reference the flat tally in
// Stats must match exactly.
func refStats(cv *Cover) OverlapStats {
	st := OverlapStats{Communities: cv.Len()}
	if cv.Len() == 0 {
		return st
	}
	st.MinSize = len(cv.Communities[0])
	total := 0
	counts := make(map[int32]int)
	for _, c := range cv.Communities {
		st.MinSize = min(st.MinSize, len(c))
		st.MaxSize = max(st.MaxSize, len(c))
		total += len(c)
		for _, v := range c {
			counts[v]++
		}
	}
	st.MeanSize = float64(total) / float64(cv.Len())
	st.CoveredNodes = len(counts)
	for _, k := range counts {
		st.Memberships += int64(k)
		if k >= 2 {
			st.OverlapNodes++
		}
		st.MaxMembership = max(st.MaxMembership, k)
	}
	if st.CoveredNodes > 0 {
		st.MeanMember = float64(st.Memberships) / float64(st.CoveredNodes)
	}
	return st
}

// randomCommunities draws k communities over [0, n), some of them
// empty.
func randomCommunities(rng *rand.Rand, n, k int) []Community {
	cs := make([]Community, k)
	for i := range cs {
		if n == 0 || rng.Intn(6) == 0 {
			cs[i] = Community{}
			continue
		}
		members := make([]int32, rng.Intn(20))
		for j := range members {
			members[j] = int32(rng.Intn(n))
		}
		cs[i] = NewCommunity(members)
	}
	return cs
}

// TestStatsMatchesMapReference: Stats over random covers — n = 0,
// empty covers, empty communities, heavy overlap — equals the map
// tally, and so does every link of a PatchStats chain that removes and
// adds communities one generation at a time.
func TestStatsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	if got, want := NewCover(nil).Stats(0), refStats(NewCover(nil)); got != want {
		t.Fatalf("empty cover, n=0: Stats=%+v, want %+v", got, want)
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		cv := NewCover(randomCommunities(rng, n, rng.Intn(12)))
		if got, want := cv.Stats(n), refStats(cv); got != want {
			t.Fatalf("trial %d (n=%d): Stats=%+v, want %+v", trial, n, got, want)
		}
		// A chain of patches, each one's stats patched from the last.
		st := cv.Stats(n)
		for link := 0; link < 8; link++ {
			var kept, removed []Community
			for _, c := range cv.Communities {
				if rng.Intn(4) == 0 {
					removed = append(removed, c)
				} else {
					kept = append(kept, c)
				}
			}
			newN := n + rng.Intn(5)
			added := randomCommunities(rng, newN, rng.Intn(4))
			next := NewCover(append(kept, added...))
			seen := map[int32]bool{}
			var affected []int32
			for _, c := range append(removed, added...) {
				for _, v := range c {
					if !seen[v] {
						seen[v] = true
						affected = append(affected, v)
					}
				}
			}
			st = PatchStats(st, next, newN, affected, degreeOf(cv, n), degreeOf(next, newN))
			want := refStats(next)
			if st != want {
				t.Fatalf("trial %d link %d: PatchStats=%+v, want %+v", trial, link, st, want)
			}
			if got := next.Stats(newN); got != want {
				t.Fatalf("trial %d link %d: Stats=%+v, want %+v", trial, link, got, want)
			}
			cv, n = next, newN
		}
	}
}

// TestStatsMembersPastN: a cover naming nodes at or past n (a cover
// over a larger node range) is still tallied in full.
func TestStatsMembersPastN(t *testing.T) {
	cv := NewCover([]Community{NewCommunity([]int32{1, 5, 9}), NewCommunity([]int32{9, 12})})
	if got, want := cv.Stats(4), refStats(cv); got != want {
		t.Fatalf("Stats=%+v, want %+v", got, want)
	}
}
