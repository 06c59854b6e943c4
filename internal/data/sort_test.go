package data

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleSortU64 is the comparison sort SortU64 replaced, kept as the
// reference the radix kernel must match.
func oracleSortU64(xs []uint64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// oracleSortPairsByKey is the comparison sort SortPairsByKey replaced.
func oracleSortPairsByKey(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Key != ps[j].Key {
			return ps[i].Key < ps[j].Key
		}
		return ps[i].Value < ps[j].Value
	})
}

// sortSizes straddle the radix cutoff.
var sortSizes = []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000}

// u64Inputs returns named inputs of length n covering the digit
// patterns the kernel special-cases.
func u64Inputs(n int, rng *rand.Rand) map[string][]uint64 {
	in := map[string][]uint64{
		"uniform64":  make([]uint64, n),
		"small":      make([]uint64, n),
		"allEqual":   make([]uint64, n),
		"allMax":     make([]uint64, n),
		"oneOddByte": make([]uint64, n),
		"zipf":       make([]uint64, n),
		"descending": make([]uint64, n),
	}
	z := rand.NewZipf(rng, 1.1, 1, 1e6)
	for i := 0; i < n; i++ {
		in["uniform64"][i] = rng.Uint64()
		in["small"][i] = uint64(rng.Intn(1000))
		in["allEqual"][i] = 0xdeadbeefcafef00d
		in["allMax"][i] = math.MaxUint64
		// Every digit is constant except one byte of one element.
		in["oneOddByte"][i] = 0x0102030405060708
		in["zipf"][i] = z.Uint64()
		in["descending"][i] = math.MaxUint64 - uint64(i)
	}
	if n > 0 {
		in["oneOddByte"][n/2] ^= 0xff << 40
		in["uniform64"][0] = math.MaxUint64
	}
	return in
}

func TestSortU64MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range sortSizes {
		for name, xs := range u64Inputs(n, rng) {
			want := CloneU64s(xs)
			oracleSortU64(want)
			SortU64(xs)
			if !slices.Equal(xs, want) {
				t.Fatalf("n=%d %s: radix sort differs from the oracle", n, name)
			}
		}
	}
}

func TestSortPairsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range sortSizes {
		keys := u64Inputs(n, rng)
		vals := u64Inputs(n, rng)
		for kname, ks := range keys {
			for vname, vs := range vals {
				ps := make([]Pair, n)
				for i := range ps {
					ps[i] = Pair{Key: ks[i], Value: vs[(i*7)%max(n, 1)]}
				}
				if n > 3 {
					ps[n-1] = ps[1] // a duplicate (key, value) pair
				}
				want := ClonePairs(ps)
				oracleSortPairsByKey(want)

				got := ClonePairs(ps)
				SortPairsByKey(got)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d keys=%s values=%s: SortPairsByKey differs from the oracle", n, kname, vname)
				}

				got = ClonePairs(ps)
				SortPairsByKeyOnly(got)
				if !slices.IsSortedFunc(got, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) }) {
					t.Fatalf("n=%d keys=%s values=%s: SortPairsByKeyOnly not sorted by key", n, kname, vname)
				}
				// Same multiset: sorting by (key, value) must give the oracle.
				SortPairsByKey(got)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d keys=%s values=%s: SortPairsByKeyOnly lost or changed pairs", n, kname, vname)
				}
			}
		}
	}
}

// TestSortScratchReuse sorts long and short inputs in turn, on both
// sides of the scratch pool cap, so pooled buffers come back at other
// lengths than they left with and large ones bypass the pool.
func TestSortScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5000, 300, scratchPoolCap + 1, 4000, 700, scratchPoolCap, 256} {
		xs := u64Inputs(n, rng)["uniform64"]
		want := CloneU64s(xs)
		oracleSortU64(want)
		SortU64(xs)
		if !slices.Equal(xs, want) {
			t.Fatalf("n=%d: SortU64 differs from the oracle", n)
		}
		ps := make([]Pair, n)
		for i := range ps {
			// Runs of equal keys, some longer than the radix cutoff.
			ps[i] = Pair{Key: uint64(rng.Intn(n/300 + 1)), Value: rng.Uint64()}
		}
		wantPs := ClonePairs(ps)
		oracleSortPairsByKey(wantPs)
		SortPairsByKey(ps)
		if !slices.Equal(ps, wantPs) {
			t.Fatalf("n=%d: SortPairsByKey differs from the oracle", n)
		}
	}
}
