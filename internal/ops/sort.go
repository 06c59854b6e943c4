package ops

import (
	"slices"

	"repro/internal/data"
	"repro/internal/dist"
)

// oversample is the number of splitter candidates each PE contributes.
const oversample = 16

// Sort globally sorts a distributed sequence with sample sort: local
// sort, splitter selection from an all-gathered sample, range partition
// all-to-all, local merge. On return, each PE's share is sorted and all
// of PE i's elements precede PE i+1's.
func Sort(w *dist.Worker, local []uint64) ([]uint64, error) {
	mine := data.CloneU64s(local)
	data.SortU64(mine)
	p := w.Size()
	if p == 1 {
		return mine, nil
	}
	splitters, err := pickSplitters(w, mine)
	if err != nil {
		return nil, err
	}
	parts := partitionByRange(mine, splitters, p)
	got, err := w.Coll.AllToAll(parts)
	if err != nil {
		return nil, err
	}
	return mergeRuns(got), nil
}

// pickSplitters all-gathers an evenly spaced sample of each PE's sorted
// share and returns the p-1 global quantile splitters.
func pickSplitters(w *dist.Worker, sorted []uint64) ([]uint64, error) {
	p := w.Size()
	sample := make([]uint64, 0, oversample)
	for i := 0; i < oversample && len(sorted) > 0; i++ {
		idx := i * len(sorted) / oversample
		sample = append(sample, sorted[idx])
	}
	parts, err := w.Coll.AllGather(sample)
	if err != nil {
		return nil, err
	}
	var all []uint64
	for _, ws := range parts {
		all = append(all, ws...)
	}
	data.SortU64(all)
	splitters := make([]uint64, 0, p-1)
	for i := 1; i < p; i++ {
		if len(all) == 0 {
			splitters = append(splitters, 0)
			continue
		}
		splitters = append(splitters, all[i*len(all)/p])
	}
	return splitters, nil
}

// partitionByRange splits a sorted slice into p contiguous ranges
// bounded by the splitters: part j holds elements x with
// splitters[j-1] <= x < splitters[j].
func partitionByRange(sorted []uint64, splitters []uint64, p int) [][]uint64 {
	parts := make([][]uint64, p)
	start := 0
	for j := 0; j < p-1; j++ {
		off, _ := slices.BinarySearch(sorted[start:], splitters[j])
		end := start + off
		parts[j] = sorted[start:end]
		start = end
	}
	parts[p-1] = sorted[start:]
	return parts
}

// mergeRuns merges sorted runs into one sorted slice (pairwise merging;
// the number of runs is at most p).
func mergeRuns(runs [][]uint64) []uint64 {
	nonEmpty := make([][]uint64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			nonEmpty = append(nonEmpty, r)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	for len(nonEmpty) > 1 {
		var next [][]uint64
		for i := 0; i+1 < len(nonEmpty); i += 2 {
			next = append(next, mergeTwo(nonEmpty[i], nonEmpty[i+1]))
		}
		if len(nonEmpty)%2 == 1 {
			next = append(next, nonEmpty[len(nonEmpty)-1])
		}
		nonEmpty = next
	}
	return nonEmpty[0]
}

func mergeTwo(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Merge combines two globally sorted distributed sequences into one
// (Section 6.5.2): splitters are sampled from both inputs, both are
// range partitioned with the same splitters, and each PE merges the
// sorted runs it receives.
func Merge(w *dist.Worker, a, b []uint64) ([]uint64, error) {
	p := w.Size()
	if !data.IsSortedU64(a) || !data.IsSortedU64(b) {
		// Local shares of globally sorted sequences must be sorted.
		// Tolerate it (the checker exists to catch misuse downstream).
		a = data.CloneU64s(a)
		b = data.CloneU64s(b)
		data.SortU64(a)
		data.SortU64(b)
	}
	if p == 1 {
		return mergeTwo(a, b), nil
	}
	both := make([]uint64, 0, len(a)+len(b))
	both = append(both, a...)
	both = append(both, b...)
	data.SortU64(both)
	splitters, err := pickSplitters(w, both)
	if err != nil {
		return nil, err
	}
	partsA := partitionByRange(a, splitters, p)
	partsB := partitionByRange(b, splitters, p)
	gotA, err := w.Coll.AllToAll(partsA)
	if err != nil {
		return nil, err
	}
	gotB, err := w.Coll.AllToAll(partsB)
	if err != nil {
		return nil, err
	}
	return mergeTwo(mergeRuns(gotA), mergeRuns(gotB)), nil
}
