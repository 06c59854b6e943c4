package ops

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// The oracles below are the comparison sorts and hash maps the local
// kernels replaced. The kernels must reproduce their outputs exactly.

// encodePairs flattens pairs for transport: key, value per pair.
func encodePairs(ps []data.Pair) []uint64 {
	out := make([]uint64, 0, 2*len(ps))
	for _, p := range ps {
		out = append(out, p.Key, p.Value)
	}
	return out
}

func oracleSortU64(xs []uint64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// oracleCombine folds ps in a hash map and sorts the result by key.
func oracleCombine(ps []data.Pair, fn ReduceFn) []data.Pair {
	m := make(map[uint64]uint64, len(ps))
	for _, p := range ps {
		if v, ok := m[p.Key]; ok {
			m[p.Key] = fn(v, p.Value)
		} else {
			m[p.Key] = p.Value
		}
	}
	out := make([]data.Pair, 0, len(m))
	for k, v := range m {
		out = append(out, data.Pair{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// oracleJoin is a hash join whose rows are then sorted by
// (key, left, right).
func oracleJoin(left, right []data.Pair) []JoinRow {
	build := make(map[uint64][]uint64, len(left))
	for _, p := range left {
		build[p.Key] = append(build[p.Key], p.Value)
	}
	var rows []JoinRow
	for _, p := range right {
		for _, lv := range build[p.Key] {
			rows = append(rows, JoinRow{Key: p.Key, Left: lv, Right: p.Value})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Key != rows[j].Key {
			return rows[i].Key < rows[j].Key
		}
		if rows[i].Left != rows[j].Left {
			return rows[i].Left < rows[j].Left
		}
		return rows[i].Right < rows[j].Right
	})
	return rows
}

// oracleGroup collects values per key in a hash map, then sorts.
func oracleGroup(ps []data.Pair) []Group {
	m := make(map[uint64][]uint64)
	for _, p := range ps {
		m[p.Key] = append(m[p.Key], p.Value)
	}
	groups := make([]Group, 0, len(m))
	for k, vs := range m {
		oracleSortU64(vs)
		groups = append(groups, Group{Key: k, Values: vs})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	return groups
}

// kernelSizes straddle the radix sort's comparison-sort cutoff (256).
var kernelSizes = []int{0, 1, 2, 255, 256, 257, 3000}

// pairCases returns named relations of n pairs covering the inputs the
// kernels special-case: constant digits, full 64-bit words, skew and
// duplicate (key, value) pairs.
func pairCases(n int, seed uint64) map[string][]data.Pair {
	rng := hashing.NewMT19937_64(seed)
	cases := map[string][]data.Pair{
		"uniform64":  make([]data.Pair, n),
		"allEqual":   make([]data.Pair, n),
		"oneOddByte": make([]data.Pair, n),
		"maxWords":   make([]data.Pair, n),
		"zipf":       workload.ZipfPairs(n, 1_000_000, 1<<32, seed),
		"dupPairs":   workload.UniformPairs(n, 8, 4, seed+1),
		"fewKeys":    workload.UniformPairs(n, 3, 1<<20, seed+2),
	}
	for i := 0; i < n; i++ {
		cases["uniform64"][i] = data.Pair{Key: rng.Uint64(), Value: rng.Uint64()}
		cases["allEqual"][i] = data.Pair{Key: 0x0123456789abcdef, Value: 42}
		cases["oneOddByte"][i] = data.Pair{Key: 0x1122334455667788, Value: 0x8877665544332211}
		cases["maxWords"][i] = data.Pair{Key: math.MaxUint64 - rng.Uint64n(4), Value: math.MaxUint64 - rng.Uint64n(4)}
	}
	if n > 0 {
		cases["uniform64"][n/2] = data.Pair{Key: math.MaxUint64, Value: math.MaxUint64}
		cases["oneOddByte"][n/3].Key ^= 0xff << 24
		cases["oneOddByte"][n-1].Value ^= 0x0f << 48
	}
	return cases
}

func TestCombineLocalMatchesOracle(t *testing.T) {
	fns := map[string]ReduceFn{"sum": SumFn, "xor": XorFn}
	for _, n := range kernelSizes {
		for name, ps := range pairCases(n, uint64(n)+1) {
			for fname, fn := range fns {
				in := data.ClonePairs(ps)
				want := oracleCombine(ps, fn)
				got := combineLocal(in, fn)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d %s %s: combine differs from the oracle", n, name, fname)
				}
			}
		}
	}
}

func TestJoinLocalMatchesOracle(t *testing.T) {
	// Left and right sizes on both sides of the cutoff; with all-equal
	// keys the row count is their product, so the largest side meets a
	// small one.
	for _, sz := range [][2]int{{0, 0}, {1, 1}, {2, 257}, {255, 256}, {256, 255}, {257, 2}, {3000, 30}} {
		lefts := pairCases(sz[0], uint64(sz[0])+10)
		rights := pairCases(sz[1], uint64(sz[1])+20)
		for lname, l := range lefts {
			for rname, r := range rights {
				before := data.ClonePairs(l)
				want := oracleJoin(l, r)
				got := JoinLocal(l, r)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sizes %v left=%s right=%s: %d rows, oracle %d, or order differs",
						sz, lname, rname, len(got), len(want))
				}
				if !reflect.DeepEqual(l, before) {
					t.Fatalf("sizes %v left=%s: JoinLocal modified its input", sz, lname)
				}
			}
		}
	}
}

// TestJoinLocalDuplicateValues pins the order of rows when both sides
// repeat values under one key: each right value once per copy of the
// left value, never left-major.
func TestJoinLocalDuplicateValues(t *testing.T) {
	left := []data.Pair{{Key: 5, Value: 2}, {Key: 5, Value: 1}, {Key: 5, Value: 1}, {Key: 7, Value: 0}}
	right := []data.Pair{{Key: 5, Value: 9}, {Key: 5, Value: 3}, {Key: 5, Value: 3}, {Key: 6, Value: 1}}
	want := []JoinRow{
		{5, 1, 3}, {5, 1, 3}, {5, 1, 3}, {5, 1, 3}, {5, 1, 9}, {5, 1, 9},
		{5, 2, 3}, {5, 2, 3}, {5, 2, 9},
	}
	if got := JoinLocal(left, right); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	if got := oracleJoin(left, right); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle rows %v, want %v", got, want)
	}
}

func TestGroupLocalMatchesOracle(t *testing.T) {
	for _, n := range kernelSizes {
		for name, ps := range pairCases(n, uint64(n)+30) {
			before := data.ClonePairs(ps)
			want := oracleGroup(ps)
			got := GroupLocal(ps)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %s: groups differ from the oracle", n, name)
			}
			if !reflect.DeepEqual(ps, before) {
				t.Fatalf("n=%d %s: GroupLocal modified its input", n, name)
			}
			// Appending to one group must not overwrite the next.
			if len(got) > 1 {
				next := got[1].Values[0]
				_ = append(got[0].Values, ^next)
				if got[1].Values[0] != next {
					t.Fatalf("n=%d %s: group values are not capped", n, name)
				}
			}
		}
	}
}

// TestReduceByKeyXorMatchesOracle runs the distributed reduction with
// XorFn on the kernel's edge-case inputs and compares each PE's share
// with the oracle combine of the pairs partitioned to it.
func TestReduceByKeyXorMatchesOracle(t *testing.T) {
	const p = 3
	for _, n := range kernelSizes {
		for name, global := range pairCases(n, uint64(n)+40) {
			pt := NewPartitioner(5, p)
			var mine [p][]data.Pair
			for _, pr := range global {
				mine[pt.PE(pr.Key)] = append(mine[pt.PE(pr.Key)], pr)
			}
			got := make([][]data.Pair, p)
			err := dist.Run(p, 7, func(w *dist.Worker) error {
				out, err := ReduceByKey(w, pt, shardPairs(global, p, w.Rank()), XorFn)
				got[w.Rank()] = out
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := range p {
				want := oracleCombine(mine[r], XorFn)
				if !slices.Equal(got[r], want) {
					t.Fatalf("n=%d %s: PE %d share differs from the oracle", n, name, r)
				}
			}
		}
	}
}

// TestExchangeKeepsSourceOrder pins what the redistribution checkers
// hash: each PE receives, source by source, the pairs partitioned to
// it in the order the source held them.
func TestExchangeKeepsSourceOrder(t *testing.T) {
	const p = 3
	global := workload.UniformPairs(2000, 50, 1<<40, 9)
	pt := NewPartitioner(11, p)
	want := make([][]data.Pair, p)
	for src := range p {
		for _, pr := range shardPairs(global, p, src) {
			want[pt.PE(pr.Key)] = append(want[pt.PE(pr.Key)], pr)
		}
	}
	got := make([][]data.Pair, p)
	err := dist.Run(p, 7, func(w *dist.Worker) error {
		red, err := RedistributeByKey(w, pt, shardPairs(global, p, w.Rank()))
		got[w.Rank()] = red.After
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("received pairs are not in source order")
	}
}

// BenchmarkLocalOps times each local kernel against the oracle it
// replaced, at the per-PE sizes of the checked reduce -> sort -> join
// pipeline: 1M uniform words, 1M Zipf pairs over a universe of 1e6, and
// a 250k x 250k join with keys in [0, 1M).
func BenchmarkLocalOps(b *testing.B) {
	words := workload.UniformU64s(1_000_000, 1<<63, 1)
	zipf := workload.ZipfPairs(1_000_000, 1_000_000, 1<<32, 2)
	left := workload.UniformPairs(250_000, 1_000_000, 1<<32, 3)
	right := workload.UniformPairs(250_000, 1_000_000, 1<<32, 4)
	cases := []struct {
		name  string
		elems int
		run   func()
	}{
		{"sort/kernel", len(words), func() { data.SortU64(data.CloneU64s(words)) }},
		{"sort/oracle", len(words), func() { oracleSortU64(data.CloneU64s(words)) }},
		{"combine/kernel", len(zipf), func() { combineLocal(data.ClonePairs(zipf), SumFn) }},
		{"combine/oracle", len(zipf), func() { oracleCombine(zipf, SumFn) }},
		{"join/kernel", len(left) + len(right), func() { JoinLocal(left, right) }},
		{"join/oracle", len(left) + len(right), func() { oracleJoin(left, right) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				c.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.elems), "ns/elem")
		})
	}
}
