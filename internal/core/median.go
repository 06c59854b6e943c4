package core

import (
	"maps"
	"slices"

	"repro/internal/data"
	"repro/internal/dist"
)

// CheckMedianAgg checks median aggregation (Theorem 10, Algorithm 2)
// under the paper's uniqueness assumption: within each key, values
// occur at most once (except the asserted median value itself, which an
// odd-count key necessarily contains). medians2 must hold, for every
// key, twice the asserted median — the doubling keeps the even-count
// "mean of the two middle elements" case integral — replicated
// identically at every PE (verified first via the result-integrity
// check; pass it sorted by key).
//
// The reduction: an asserted median is correct iff the number of
// smaller elements equals the number of larger elements. Each local
// element contributes -1 (smaller) or +1 (larger), equal elements
// contribute nothing, and the per-key sums are verified to be zero by
// the sum aggregation checker (the asserted side is the all-zero
// vector, so it costs nothing to accumulate). A local deterministic
// reject covers input keys missing from the asserted result.
//
// For inputs with duplicated values use CheckMedianAggTies, which takes
// the tie-breaking certificate Theorem 10 requires.
func CheckMedianAgg(w *dist.Worker, cfg SumConfig, input []data.Pair, medians2 []data.Pair) (bool, error) {
	return checkMedian(w, cfg, input, medians2, nil)
}

// TieCert is the tie-breaking certificate of Theorem 10 for one key:
// among the input elements whose value equals the asserted median,
// EqLow are ranked below the median slot(s), EqHigh above them, and
// AtSlot occupy the slot(s) themselves. AtSlot is 1 for odd element
// counts, 0 or 2 for even ones — the checker rejects anything larger,
// which bounds how much imbalance a forged certificate can absorb.
type TieCert struct {
	EqLow  uint64
	EqHigh uint64
	AtSlot uint64
}

// ComputeTieCert derives the reference certificate for one key from its
// sorted values and the asserted doubled median. Median algorithms use
// it to emit certificates alongside their result.
func ComputeTieCert(sortedValues []uint64, median2 uint64) TieCert {
	n := len(sortedValues)
	// Median slot ranks (0-based): odd n -> {n/2}; even -> {n/2-1, n/2}.
	loSlot, hiSlot := n/2, n/2
	if n%2 == 0 && n > 0 {
		loSlot = n/2 - 1
	}
	var cert TieCert
	for i, v := range sortedValues {
		if 2*v != median2 {
			continue
		}
		switch {
		case i < loSlot:
			cert.EqLow++
		case i > hiSlot:
			cert.EqHigh++
		default:
			cert.AtSlot++
		}
	}
	return cert
}

// CheckMedianAggTies is CheckMedianAgg extended with tie-breaking
// certificates (required for every key): the balance condition becomes
//
//	#smaller + EqLow == #larger + EqHigh,
//
// and a second zero-sum lane verifies the certificate itself:
//
//	#equal == EqLow + EqHigh + AtSlot,
//
// with the local deterministic check AtSlot <= 2. The certificate must
// be replicated at all PEs along with the medians.
func CheckMedianAggTies(w *dist.Worker, cfg SumConfig, input []data.Pair, medians2 []data.Pair, ties map[uint64]TieCert) (bool, error) {
	if ties == nil {
		ties = map[uint64]TieCert{}
	}
	return checkMedian(w, cfg, input, medians2, ties)
}

func checkMedian(w *dist.Worker, cfg SumConfig, input []data.Pair, medians2 []data.Pair, ties map[uint64]TieCert) (bool, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	st := NewMedianAggState("MedianAgg", cfg, seed, w.Rank(), input, medians2, ties)
	return resolveOne(w, st)
}

// normalizeBlocks normalizes a table consisting of `blocks` consecutive
// checker tables.
func (c *SumChecker) normalizeBlocks(t []uint64, blocks int) {
	words := c.TableWords()
	for b := 0; b < blocks; b++ {
		c.Normalize(t[b*words : (b+1)*words])
	}
}

// flattenMedianAssertion encodes medians and tie certificates in key
// order for the replication digest.
func flattenMedianAssertion(medians2 []data.Pair, ties map[uint64]TieCert) []uint64 {
	ms := data.ClonePairs(medians2)
	data.SortPairsByKey(ms)
	flat := make([]uint64, 0, 2*len(ms)+4*len(ties))
	for _, pr := range ms {
		flat = append(flat, pr.Key, pr.Value)
	}
	if len(ties) > 0 {
		for _, k := range slices.Sorted(maps.Keys(ties)) {
			tc := ties[k]
			flat = append(flat, k, tc.EqLow, tc.EqHigh, tc.AtSlot)
		}
	}
	return flat
}
