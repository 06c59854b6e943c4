package ops

import (
	"repro/internal/data"
	"repro/internal/dist"
)

// JoinRow is one match of an inner join: a key present in both inputs
// with one value from each side.
type JoinRow struct {
	Key   uint64
	Left  uint64
	Right uint64
}

// Join computes the inner join of two distributed (key, value)
// relations (Section 6.5.4): both sides are hash partitioned by key with
// the same partitioner, then joined locally by JoinLocal. Each PE
// returns its share of the result sorted by (key, left, right).
func Join(w *dist.Worker, pt Partitioner, left, right []data.Pair) ([]JoinRow, error) {
	gotL, err := exchangePairsByKey(w, pt, left)
	if err != nil {
		return nil, err
	}
	gotR, err := exchangePairsByKey(w, pt, right)
	if err != nil {
		return nil, err
	}
	return JoinLocal(gotL, gotR), nil
}

// JoinLocal computes the inner join of two local relations without
// modifying them, as a sort-merge join: both sides are sorted by
// (key, value) and walked together. Rows come out sorted by
// (key, left, right); the result is nil if no key matches.
func JoinLocal(left, right []data.Pair) []JoinRow {
	l, r := data.ClonePairs(left), data.ClonePairs(right)
	data.SortPairsByKey(l)
	data.SortPairsByKey(r)
	n := 0
	matchRuns(l, r, func(lr, rr []data.Pair) { n += len(lr) * len(rr) })
	if n == 0 {
		return nil
	}
	rows := make([]JoinRow, 0, n)
	matchRuns(l, r, func(lr, rr []data.Pair) {
		key := lr[0].Key
		// Each distinct left value, with multiplicity m, pairs with
		// every right value m times before the next left value starts:
		// that is (key, left, right) order.
		for i := 0; i < len(lr); {
			j := i + 1
			for j < len(lr) && lr[j].Value == lr[i].Value {
				j++
			}
			for _, rp := range rr {
				for range j - i {
					rows = append(rows, JoinRow{Key: key, Left: lr[i].Value, Right: rp.Value})
				}
			}
			i = j
		}
	})
	return rows
}

// matchRuns walks two relations sorted by key and calls f with the run
// of each side for every key present in both, in key order.
func matchRuns(l, r []data.Pair, f func(lr, rr []data.Pair)) {
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		switch lk, rk := l[i].Key, r[j].Key; {
		case lk < rk:
			i++
		case lk > rk:
			j++
		default:
			i2, j2 := i+1, j+1
			for i2 < len(l) && l[i2].Key == lk {
				i2++
			}
			for j2 < len(r) && r[j2].Key == lk {
				j2++
			}
			f(l[i:i2], r[j:j2])
			i, j = i2, j2
		}
	}
}

// RedistInputs captures the redistribution phase of a key-partitioned
// operation (GroupBy, Join) for the invasive checkers of Section 6.5:
// the pairs a PE held before the exchange and the pairs it holds after.
type RedistInputs struct {
	Before []data.Pair
	After  []data.Pair
}

// RedistributeByKey performs only the redistribution phase of
// GroupBy/Join and reports before/after, so invasive checkers can verify
// the data movement while the caller applies its own local group or join
// logic afterwards.
func RedistributeByKey(w *dist.Worker, pt Partitioner, local []data.Pair) (RedistInputs, error) {
	after, err := exchangePairsByKey(w, pt, local)
	if err != nil {
		return RedistInputs{}, err
	}
	return RedistInputs{Before: local, After: after}, nil
}
