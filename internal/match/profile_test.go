package match

import (
	"math"
	"math/rand"
	"testing"

	"streamsum/internal/archive"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
)

// profileCorpus archives a generated corpus of dimensionality dim in a
// memory-only base and returns its entries in id order. Most summaries
// are small boxes of cells and noisy translates of earlier ones; the rest
// sit at the int32 limits (some wrap around them, which leaves them
// without a profile) or spread over 2^16 or more coordinates (no profile
// either).
func profileCorpus(t testing.TB, rng *rand.Rand, dim int) []*archive.Entry {
	t.Helper()
	b, err := archive.New(archive.Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	var sums []*sgs.Summary
	for k := 0; k < 36; k++ {
		var origin, shift [grid.MaxDim]int32
		extent := int32(2 + rng.Intn(5))
		for d := 0; d < dim; d++ {
			origin[d] = int32(rng.Intn(41) - 20)
			shift[d] = int32(rng.Intn(9) - 4)
		}
		var s *sgs.Summary
		switch {
		case k%6 == 1 && len(sums) > 0: // a noisy translate: the vote keeps some of these
			s = noisyCopy(rng, sums[rng.Intn(len(sums))], shift, 0.2*rng.Float64())
		case k%6 == 2: // just inside the upper int32 limit
			for d := 0; d < dim; d++ {
				origin[d] = math.MaxInt32 - extent - int32(rng.Intn(3))
			}
			s = randomSummary(rng, dim, 1+rng.Intn(20), origin, extent, 1)
		case k%6 == 3: // at the lower limit, some boxes wrapping round from the upper
			for d := 0; d < dim; d++ {
				origin[d] = math.MinInt32 - int32(rng.Intn(2))
			}
			s = randomSummary(rng, dim, 1+rng.Intn(20), origin, extent, 1)
		case k%6 == 4: // a few cells spread over at least 2^16 coordinates
			s = randomSummary(rng, dim, 2+rng.Intn(3), origin, 1<<16+int32(rng.Intn(1000)), 1)
		default:
			s = randomSummary(rng, dim, 1+rng.Intn(30), origin, extent, 1)
		}
		if _, ok, err := b.Put(s); err != nil || !ok {
			t.Fatalf("put: archived %v, %v", ok, err)
		}
		sums = append(sums, s)
	}
	var entries []*archive.Entry
	b.All(func(e *archive.Entry) bool { entries = append(entries, e); return true })
	return entries
}

// TestProfileStageMatchesRefine: over generated memory-tier corpora of
// dims 1–8 — coordinates near both int32 limits, boxes wrapping round
// them, summaries spanning 2^16 coordinates or more, thresholds 0 to 1 —
// RefinePairs, whose profile stage meets every position-insensitive pair
// whose entry has a profile, returns for every pair the distance bits
// that Refine, which uses no profile, returns; and its Pruned count is
// the number of pairs Refine reports at +Inf.
func TestProfileStageMatchesRefine(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	w := EqualWeights()
	var profiled, unprofiled, edge, stagePruned, kept int
	for dim := 1; dim <= grid.MaxDim; dim++ {
		entries := profileCorpus(t, rng, dim)
		for _, e := range entries {
			switch {
			case archive.ProfileOf(e) == nil:
				unprofiled++
			case archive.ProfileOf(e).Hi[0] > math.MaxInt32-16 || archive.ProfileOf(e).Lo[0] < math.MinInt32+16:
				edge++
				profiled++
			default:
				profiled++
			}
		}
		for ti := 0; ti < len(entries); ti += 3 {
			target := entries[ti].Summary
			tp := sgs.NewProfile(target)
			for _, threshold := range []float64{0, 0.15, 0.3, 0.45, 0.6, 1} {
				outs, rc, err := RefinePairs(2, len(entries), 0, func(i int) Pair {
					return Pair{Target: target, TargetProfile: tp, Weights: w, Threshold: threshold, Entry: entries[i]}
				})
				if err != nil {
					t.Fatal(err)
				}
				inf := 0
				for i, e := range entries {
					want, _ := Refine(target, e.Summary, w, DefaultAlignBudget, threshold)
					if math.Float64bits(outs[i].Distance) != math.Float64bits(want) {
						t.Fatalf("dim %d target %d entry %d threshold %v: RefinePairs %v, Refine %v",
							dim, ti, i, threshold, outs[i].Distance, want)
					}
					if math.IsInf(want, 1) {
						inf++
					} else {
						kept++
					}
				}
				if rc.Pruned != inf || rc.ProfilePruned > rc.Pruned-rc.SizePruned || rc.DiskLoads != 0 || rc.TopKSkipped != 0 {
					t.Fatalf("dim %d target %d threshold %v: counts %+v, Refine dismissed %d", dim, ti, threshold, rc, inf)
				}
				if rc.SizePruned+rc.ProfilePruned > 0 && threshold >= 1 {
					t.Fatalf("dim %d: stage dismissed pairs at threshold 1: %+v", dim, rc)
				}
				stagePruned += rc.ProfilePruned
			}
		}
	}
	t.Logf("%d entries with a profile (%d at an int32 limit), %d without; %d pairs dismissed by the profile stage, %d kept",
		profiled, edge, unprofiled, stagePruned, kept)
	if stagePruned < 100 || unprofiled == 0 || edge == 0 || kept == 0 {
		t.Fatal("corpus too weak to exercise the profile stage")
	}
}

// TestRefinePairsNoPerPairAllocs: a warm RefinePairs over memory-tier
// entries allocates per call, never per pair, whether its pairs are
// dismissed by the profile stage or the vote, or searched; profiles are
// built by archive.Base.Put and by the caller, once per target.
func TestRefinePairsNoPerPairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	b, sums := buildBase(t, 64, 5)
	var entries []*archive.Entry
	b.All(func(e *archive.Entry) bool { entries = append(entries, e); return true })
	target := sums[7]
	tp := sgs.NewProfile(target)
	for _, limit := range []int{0, 3} {
		for _, threshold := range []float64{0.2, 0.5, 0.9} {
			var rc RefineCounts
			allocs := func(n int) float64 {
				return testing.AllocsPerRun(20, func() {
					_, rc, _ = RefinePairs(1, n, limit, func(i int) Pair {
						return Pair{Target: target, TargetProfile: tp, Weights: EqualWeights(), Threshold: threshold, Entry: entries[i]}
					})
				})
			}
			few, all := allocs(8), allocs(len(entries))
			if all != few {
				t.Errorf("limit %d threshold %v: %v allocs over %d pairs, %v over 8", limit, threshold, all, len(entries), few)
			}
			if threshold == 0.2 && rc.ProfilePruned == 0 {
				t.Errorf("limit %d threshold %v: no pair met the profile stage (%+v)", limit, threshold, rc)
			}
		}
	}
}
