package ops

import (
	"repro/internal/data"
	"repro/internal/dist"
)

// ReduceFn combines two values of the same key. It must be associative
// and commutative (Section 4).
type ReduceFn func(a, b uint64) uint64

// SumFn adds with wraparound in Z/2^64Z.
func SumFn(a, b uint64) uint64 { return a + b }

// XorFn combines bitwise, the other operator Theorem 1 covers.
func XorFn(a, b uint64) uint64 { return a ^ b }

// ReduceByKey aggregates all (key, value) pairs with the same key using
// fn, as in Section 2 "Reduction": local combine, hash partition
// all-to-all, final local combine. The result is hash partitioned over
// the PEs; each PE returns its share sorted by key.
func ReduceByKey(w *dist.Worker, pt Partitioner, local []data.Pair, fn ReduceFn) ([]data.Pair, error) {
	combined := combineLocal(data.ClonePairs(local), fn)
	received, err := exchangePairsByKey(w, pt, combined)
	if err != nil {
		return nil, err
	}
	return combineLocal(received, fn), nil
}

// combineLocal sorts ps by key in place and folds each run of equal
// keys with fn. It returns one pair per key, sorted by key, in a prefix
// of ps. Because fn is associative and commutative, the order within a
// run does not change the result.
func combineLocal(ps []data.Pair, fn ReduceFn) []data.Pair {
	data.SortPairsByKeyOnly(ps)
	out := ps[:0]
	for i := 0; i < len(ps); {
		acc := ps[i]
		for i++; i < len(ps) && ps[i].Key == acc.Key; i++ {
			acc.Value = fn(acc.Value, ps[i].Value)
		}
		out = append(out, acc)
	}
	return out
}

// Group is one key with all of its values collected.
type Group struct {
	Key    uint64
	Values []uint64
}

// GroupByKey routes all pairs of a key to one PE (Section 2 "GroupBy")
// and returns this PE's groups sorted by key. Values within a group are
// sorted, which fixes a deterministic processing order for the group
// function.
func GroupByKey(w *dist.Worker, pt Partitioner, local []data.Pair) ([]Group, error) {
	received, err := exchangePairsByKey(w, pt, local)
	if err != nil {
		return nil, err
	}
	return GroupLocal(received), nil
}

// GroupLocal groups the local pairs ps by key without modifying ps:
// groups come out sorted by key with their values ascending. The values
// of all groups are slices of one sorted backing array, each capped at
// its own length.
func GroupLocal(ps []data.Pair) []Group {
	sorted := data.ClonePairs(ps)
	data.SortPairsByKey(sorted)
	vals := make([]uint64, len(sorted))
	groups := []Group{}
	for i := 0; i < len(sorted); {
		j := i
		for ; j < len(sorted) && sorted[j].Key == sorted[i].Key; j++ {
			vals[j] = sorted[j].Value
		}
		groups = append(groups, Group{Key: sorted[i].Key, Values: vals[i:j:j]})
		i = j
	}
	return groups
}
