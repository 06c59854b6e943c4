// Package data defines the element types shared by the distributed
// operations and the checkers: fixed-size machine-word elements (uint64)
// and (key, value) pairs, matching the paper's model of n fixed-size
// elements (Section 2).
package data

import (
	"cmp"
	"slices"
	"sync"
)

// Pair is a (key, value) record, the unit of all aggregation operations.
type Pair struct {
	Key   uint64
	Value uint64
}

// Triple is a (key, value, count) record used by average aggregation
// (Section 6.1): averages are computed as a sum lane plus a count lane.
type Triple struct {
	Key   uint64
	Value uint64
	Count uint64
}

// ClonePairs returns a deep copy of ps.
func ClonePairs(ps []Pair) []Pair {
	out := make([]Pair, len(ps))
	copy(out, ps)
	return out
}

// CloneU64s returns a deep copy of xs.
func CloneU64s(xs []uint64) []uint64 {
	out := make([]uint64, len(xs))
	copy(out, xs)
	return out
}

// IsSortedU64 reports whether xs is non-decreasing.
func IsSortedU64(xs []uint64) bool {
	return slices.IsSorted(xs)
}

// SortU64 sorts xs in place in non-decreasing order with an LSD radix
// sort on 8-bit digits. One histogram pass counts every digit, and a
// digit that is the same in every element costs no pass: keys below
// 2^20 take 3 passes, not 8.
func SortU64(xs []uint64) {
	n := len(xs)
	if n < radixCutoff {
		slices.Sort(xs)
		return
	}
	var cnt [8][256]int
	for _, x := range xs {
		cnt[0][byte(x)]++
		cnt[1][byte(x>>8)]++
		cnt[2][byte(x>>16)]++
		cnt[3][byte(x>>24)]++
		cnt[4][byte(x>>32)]++
		cnt[5][byte(x>>40)]++
		cnt[6][byte(x>>48)]++
		cnt[7][byte(x>>56)]++
	}
	buf := u64Scratch.get(n)
	src, dst := xs, buf
	for d := range cnt {
		shift := uint(8 * d)
		c := &cnt[d]
		if c[byte(src[0]>>shift)] == n {
			continue
		}
		prefixSums(c)
		for _, x := range src {
			b := byte(x >> shift)
			dst[c[b]] = x
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	u64Scratch.put(buf)
}

// SortPairsByKey sorts ps in place by key, ties by value, so the
// order is total and equal inputs give identical outputs. It
// radix-sorts by key, then sorts each run of equal keys by value: with
// few repeated keys, that skips most of the value passes.
func SortPairsByKey(ps []Pair) {
	SortPairsByKeyOnly(ps)
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].Key == ps[i].Key {
			j++
		}
		if run := ps[i:j]; len(run) >= radixCutoff {
			sortPairsBy(run, false)
		} else if len(run) > 1 {
			slices.SortFunc(run, func(a, b Pair) int { return cmp.Compare(a.Value, b.Value) })
		}
		i = j
	}
}

// SortPairsByKeyOnly sorts ps in place by key alone. Pairs with equal
// keys end up adjacent in an unspecified (but deterministic) order,
// which is all a fold with a commutative operator needs.
func SortPairsByKeyOnly(ps []Pair) {
	if len(ps) < radixCutoff {
		slices.SortFunc(ps, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
		return
	}
	sortPairsBy(ps, true)
}

// sortPairsBy is the LSD radix kernel on pairs: it sorts ps by the key
// if byKey, else by the value.
func sortPairsBy(ps []Pair, byKey bool) {
	n := len(ps)
	field := func(p Pair) uint64 {
		if byKey {
			return p.Key
		}
		return p.Value
	}
	var cnt [8][256]int
	for _, p := range ps {
		x := field(p)
		cnt[0][byte(x)]++
		cnt[1][byte(x>>8)]++
		cnt[2][byte(x>>16)]++
		cnt[3][byte(x>>24)]++
		cnt[4][byte(x>>32)]++
		cnt[5][byte(x>>40)]++
		cnt[6][byte(x>>48)]++
		cnt[7][byte(x>>56)]++
	}
	buf := pairScratch.get(n)
	src, dst := ps, buf
	for d := range cnt {
		shift := uint(8 * d)
		c := &cnt[d]
		if c[byte(field(src[0])>>shift)] == n {
			continue
		}
		prefixSums(c)
		for _, p := range src {
			b := byte(field(p) >> shift)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
	pairScratch.put(buf)
}

// radixCutoff is the length below which the sorts use slices.Sort and
// slices.SortFunc: under it the radix sort's fixed cost, a 256-bucket
// prefix sum per digit, outweighs its linear passes.
const radixCutoff = 256

// prefixSums turns digit counts into the first output slot of each
// digit.
func prefixSums(c *[256]int) {
	sum := 0
	for i, k := range c {
		c[i] = sum
		sum += k
	}
}

// scratchPoolCap is the largest radix scratch buffer, in elements,
// kept for reuse. Larger buffers are allocated per call, so a
// million-element sort does not pin its scratch after it returns.
const scratchPoolCap = 1 << 16

// scratch hands out the radix kernel's ping-pong buffers.
type scratch[T any] struct{ pool sync.Pool }

var (
	u64Scratch  scratch[uint64]
	pairScratch scratch[Pair]
)

func (s *scratch[T]) get(n int) []T {
	if n <= scratchPoolCap {
		if b, ok := s.pool.Get().(*[]T); ok && cap(*b) >= n {
			return (*b)[:n]
		}
	}
	return make([]T, n)
}

func (s *scratch[T]) put(b []T) {
	if cap(b) <= scratchPoolCap {
		s.pool.Put(&b)
	}
}

// PairsToMapSum folds ps into a key -> sum-of-values map using wrapping
// uint64 addition. It is the sequential reference for sum aggregation.
func PairsToMapSum(ps []Pair) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, p := range ps {
		m[p.Key] += p.Value
	}
	return m
}

// Keys returns the sorted distinct keys of m.
func Keys(m map[uint64]uint64) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	SortU64(ks)
	return ks
}

// MapToPairs converts m into pairs sorted by key.
func MapToPairs(m map[uint64]uint64) []Pair {
	out := make([]Pair, 0, len(m))
	for k, v := range m {
		out = append(out, Pair{Key: k, Value: v})
	}
	SortPairsByKey(out)
	return out
}

// SplitEven partitions n items over p parts as evenly as possible and
// returns the [start, end) range of part i. The first n%p parts receive
// one extra item, matching the O(n/p) balanced distribution the paper
// assumes.
func SplitEven(n, p, i int) (start, end int) {
	base := n / p
	rem := n % p
	start = i*base + min(i, rem)
	end = start + base
	if i < rem {
		end++
	}
	return start, end
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
