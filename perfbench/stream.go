package main

import (
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/obs"
)

// streamSizes are the per-PE sizes of the stream workload.
type streamSizes struct {
	n        int    // streamed pairs, and streamed words, per PE
	chunk    int    // source chunk size in elements
	universe uint64 // key universe of the streamed pairs (a power of two)
	detectN  int    // per-PE size of the materialized detection inputs
	setups   int    // mesh bring-ups timed for setup_s
}

var (
	streamFull = streamSizes{n: 8_000_000, chunk: 65536, universe: 1 << 20, detectN: 1 << 16, setups: 1000}
	streamTiny = streamSizes{n: 100_000, chunk: 4096, universe: 1 << 12, detectN: 4096, setups: 3}
)

const (
	domPairs = 0x70616972
	domSeq   = 0x73657120
)

// streamGen generates the streamed data from the seed, element by
// element, so no input is ever materialized.
type streamGen struct {
	sz       streamSizes
	pairSeed [pes]uint64
	seqSeed  [pes]uint64
	permA    uint64 // the claimed permutation output reads word (permA·i + permB) mod n
	permB    uint64
}

func newStreamGen(sz streamSizes, seed uint64) streamGen {
	g := streamGen{sz: sz}
	for r := range pes {
		g.pairSeed[r] = subSeed(seed, domPairs, r)
		g.seqSeed[r] = subSeed(seed, domSeq, r)
	}
	n := uint64(sz.n)
	g.permA = hashing.Mix64(seed)%n | 1
	for gcd(g.permA, n) != 1 {
		g.permA += 2
	}
	g.permB = hashing.Mix64(seed+1) % n
	return g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *streamGen) pair(r, i int) repro.Pair {
	x := hashing.Mix64(g.pairSeed[r] + uint64(i)*0x9e3779b97f4a7c15)
	return repro.Pair{Key: x & (g.sz.universe - 1), Value: x >> 40}
}

func (g *streamGen) word(r, i int) uint64 {
	return hashing.Mix64(g.seqSeed[r] + uint64(i)*0x9e3779b97f4a7c15)
}

// permuted is the i-th word of PE r's claimed permutation output: the
// same multiset as its input, in another order.
func (g *streamGen) permuted(r, i int) uint64 {
	j := (g.permA*uint64(i) + g.permB) % uint64(g.sz.n)
	return g.word(r, int(j))
}

// referenceSums computes the correct claimed output of the streamed sum
// aggregation by plain summation: every key that occurs, with its
// global sum, each key claimed by PE key mod p.
func referenceSums(g *streamGen, n int) [][]repro.Pair {
	sums := make([]uint64, g.sz.universe)
	seen := make([]bool, g.sz.universe)
	for r := range pes {
		for i := range n {
			p := g.pair(r, i)
			sums[p.Key] += p.Value
			seen[p.Key] = true
		}
	}
	out := make([][]repro.Pair, pes)
	for k, ok := range seen {
		if ok {
			out[k%pes] = append(out[k%pes], repro.Pair{Key: uint64(k), Value: sums[k]})
		}
	}
	return out
}

// runStreamJob streams both checks on every PE: the sum aggregation of
// the generated pairs against the reference output, then the
// permutation check of the generated words against the same words in
// another order.
func runStreamJob(m *mesh, g *streamGen, out [][]repro.Pair, tr *obs.Tracer) (job, error) {
	opts := repro.DefaultOptions() // CheckEager
	opts.Parallelism = 1
	opts.Tracer = tr
	sz := g.sz
	return m.runJob(opts, func(ctx *repro.Context, r int, call caller) {
		call("StreamPairs.AssertSum", false, func() error {
			in := repro.GenPairs(sz.n, sz.chunk, func(i int) repro.Pair { return g.pair(r, i) })
			return ctx.StreamPairs(in).AssertSum(repro.SlicePairs(out[r], sz.chunk))
		})
		call("StreamSeq.AssertPermutation", false, func() error {
			in := repro.GenSeq(sz.n, sz.chunk, func(i int) uint64 { return g.word(r, i) })
			claim := repro.GenSeq(sz.n, sz.chunk, func(i int) uint64 { return g.permuted(r, i) })
			return ctx.StreamSeq(in).AssertPermutation(claim)
		})
	})
}

// drainSources pulls the same four sources on every PE without a
// checker: the cost of producing the streamed data, against which the
// checked stream is compared (CheckOff would not consume the sources
// at all).
func drainSources(m *mesh, g *streamGen, out [][]repro.Pair) (float64, error) {
	starts, ends := make([]int64, pes), make([]int64, pes)
	sinks := make([]uint64, pes) // keeps the drain loops from being optimized away
	sz := g.sz
	err := m.spmd(func(w *dist.Worker) error {
		r := w.Rank()
		starts[r] = time.Now().UnixNano()
		var sink uint64
		for _, src := range []repro.PairSource{
			repro.GenPairs(sz.n, sz.chunk, func(i int) repro.Pair { return g.pair(r, i) }),
			repro.SlicePairs(out[r], sz.chunk),
		} {
			for {
				c, err := src.Next()
				if err != nil {
					return err
				}
				if len(c) == 0 {
					break
				}
				sink += c[len(c)-1].Value
			}
		}
		for _, src := range []repro.SeqSource{
			repro.GenSeq(sz.n, sz.chunk, func(i int) uint64 { return g.word(r, i) }),
			repro.GenSeq(sz.n, sz.chunk, func(i int) uint64 { return g.permuted(r, i) }),
		} {
			for {
				c, err := src.Next()
				if err != nil {
					return err
				}
				if len(c) == 0 {
					break
				}
				sink += c[len(c)-1]
			}
		}
		ends[r] = time.Now().UnixNano()
		sinks[r] = sink
		return nil
	})
	return float64(max(ends[0], ends[1])-min(starts[0], starts[1])) / 1e9, err
}

// checkStreamJob requires both clean streamed claims to pass on every
// PE. It counts two operations.
func checkStreamJob(rep *report, n int, j job) {
	rep.attempted += 2
	for i, name := range []string{"StreamSum", "StreamPerm"} {
		for r, rec := range j.ranks {
			if i >= len(rec.stats) || rec.stats[i].Verdict != repro.VerdictPass {
				rep.fail("job %d PE %d: clean %s claim did not pass (%v)", n, r, name, rec.rejected)
				break
			}
		}
	}
}

// detectStream asserts effectiveness-checked corruptions of streamed
// claims — every Table 4 manipulator on a sum claim, every Table 6
// manipulator on a permutation claim — over materialized detectN-element
// prefixes of the streams.
func detectStream(m *mesh, rep *report, g *streamGen, seed uint64) (detection, error) {
	var det detection
	sz := g.sz
	rng := hashing.NewMT19937_64(subSeed(seed, domDet, 1))
	in := make([][]repro.Pair, pes)
	words := make([][]uint64, pes)
	for r := range pes {
		for i := range sz.detectN {
			in[r] = append(in[r], g.pair(r, i))
			words[r] = append(words[r], g.word(r, i))
		}
	}
	out := referenceSums(g, sz.detectN)
	for i, man := range manipulate.PairManipulators() {
		claim := make([][]repro.Pair, pes)
		for r := range pes {
			claim[r] = append([]repro.Pair(nil), out[r]...)
		}
		corruptPairs(claim[i%pes], man, rng, sz.universe)
		if err := det.expectRejected(m, rep, repro.CheckEager, "StreamSum/"+man.Name, func(ctx *repro.Context, r int) error {
			return ctx.StreamPairs(repro.SlicePairs(in[r], sz.chunk)).AssertSum(repro.SlicePairs(claim[r], sz.chunk))
		}); err != nil {
			return det, err
		}
	}
	for i, man := range manipulate.SeqManipulators() {
		claim := make([][]uint64, pes)
		for r := range pes {
			claim[r] = append([]uint64(nil), words[r]...)
		}
		corruptSeq(claim[i%pes], man, rng, 1<<63)
		if err := det.expectRejected(m, rep, repro.CheckEager, "StreamPerm/"+man.Name, func(ctx *repro.Context, r int) error {
			return ctx.StreamSeq(repro.SliceSeq(words[r], sz.chunk)).AssertPermutation(repro.SliceSeq(claim[r], sz.chunk))
		}); err != nil {
			return det, err
		}
	}
	return det, nil
}

// runStream is the stream workload: streamed sum and permutation checks
// over an in-memory p=2 mesh in eager mode, one stream job per
// iteration, run back to back. A stream has no operation and CheckOff
// would not consume the sources, so its unchecked baseline drains the
// same sources without a checker.
func runStream(opt options, rep *report) error {
	sz := streamFull
	if opt.tiny {
		sz = streamTiny
	}
	cfg := dist.Config{Transport: dist.TransportMem, Timeout: opTimeout}
	m, setup, err := bringUpMeshes(cfg, opt.seed, sz.setups)
	if err != nil {
		return err
	}
	defer m.net.Close()

	g := newStreamGen(sz, opt.seed)
	out := referenceSums(&g, sz.n)
	ph, err := measureBackToBack(opt, rep, func(n int, tr *obs.Tracer) (job, error) {
		j, err := runStreamJob(m, &g, out, tr)
		if err == nil {
			checkStreamJob(rep, n, j)
		}
		return j, err
	}, func() (float64, error) { return drainSources(m, &g, out) })
	if err != nil {
		return err
	}
	det, err := detectStream(m, rep, &g, opt.seed)
	if err != nil {
		return err
	}
	ph.report(rep, setup, det)
	if opt.trace {
		keys := make([]uint64, 0, 1<<20)
		for i := range min(sz.n, 1<<19) {
			keys = append(keys, g.pair(0, i).Key, g.word(0, i))
		}
		ph.reportLayers(rep, m.net, keys, opt.seed)
		if err := writeTrace(opt.traceDir, "stream", obs.Merge(ph.export)); err != nil {
			return err
		}
	}
	logf("stream: %d checked jobs, wall median %.3f s, detect %d/%d, failed %d of %d",
		len(ph.makespans), median(ph.makespans), det.detected, det.injected, rep.failed, rep.attempted)
	return nil
}
