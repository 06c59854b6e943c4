package main

import (
	"repro"
	"repro/internal/hashing"
	"repro/internal/manipulate"
)

// corruptPairs applies man to a claimed sum-aggregation output share in
// place. If the manipulator cannot change the aggregation of this share
// (the paper's effectiveness criterion), it falls back to a direct value
// edit, so the injected fault is always real.
func corruptPairs(ps []repro.Pair, man manipulate.PairManipulator, rng *hashing.MT19937_64, universe uint64) {
	orig := append([]repro.Pair(nil), ps...)
	if man.Apply(ps, rng, universe) && manipulate.ChangesAggregation(orig, ps) {
		return
	}
	copy(ps, orig)
	ps[rng.Uint64n(uint64(len(ps)))].Value += 1 + rng.Uint64n(1<<16)
}

// corruptSeq applies man to a claimed sorted or permuted share in place,
// falling back to a direct element edit when the multiset would not
// change.
func corruptSeq(xs []uint64, man manipulate.SeqManipulator, rng *hashing.MT19937_64, universe uint64) {
	orig := append([]uint64(nil), xs...)
	if man.Apply(xs, rng, universe) && manipulate.ChangesMultiset(orig, xs) {
		return
	}
	copy(xs, orig)
	xs[rng.Uint64n(uint64(len(xs)))] ^= 1 + rng.Uint64n(1<<20)
}
