package main

import (
	"fmt"

	"repro"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/obs"
	"repro/internal/workload"
)

// pipelineSizes are the per-PE input sizes of the pipeline workload.
type pipelineSizes struct {
	reducePairs int    // Zipf pairs into ReduceByKey
	universe    int    // Zipf key universe
	sortN       int    // uniform words into Sort
	joinN       int    // pairs per relation into Join
	joinKeys    uint64 // join keys are uniform in [0, joinKeys)
	setups      int    // mesh bring-ups timed for setup_s
}

var (
	pipelineFull = pipelineSizes{reducePairs: 1_000_000, universe: 1_000_000, sortN: 1_000_000, joinN: 250_000, joinKeys: 1_000_000, setups: 300}
	pipelineTiny = pipelineSizes{reducePairs: 20_000, universe: 20_000, sortN: 20_000, joinN: 5_000, joinKeys: 20_000, setups: 3}
)

// Seed domains of the pipeline's inputs.
const (
	domZipf  = 0x7a697066
	domSort  = 0x736f7274
	domLeft  = 0x6c656674
	domRight = 0x72696768
	domDet   = 0x64657465
)

// pipelineInputs are every PE's local shares, generated before timing.
type pipelineInputs struct {
	zipf, left, right [][]repro.Pair
	sortIn            [][]uint64
}

func genPipeline(sz pipelineSizes, seed uint64) pipelineInputs {
	in := pipelineInputs{
		zipf:   make([][]repro.Pair, pes),
		left:   make([][]repro.Pair, pes),
		right:  make([][]repro.Pair, pes),
		sortIn: make([][]uint64, pes),
	}
	for r := range pes {
		in.zipf[r] = workload.ZipfPairs(sz.reducePairs, sz.universe, 1<<32, subSeed(seed, domZipf, r))
		in.sortIn[r] = workload.UniformU64s(sz.sortN, 1<<63, subSeed(seed, domSort, r))
		in.left[r] = workload.UniformPairs(sz.joinN, sz.joinKeys, 1<<32, subSeed(seed, domLeft, r))
		in.right[r] = workload.UniformPairs(sz.joinN, sz.joinKeys, 1<<32, subSeed(seed, domRight, r))
	}
	return in
}

// pipelineRef is the expected output, computed in one process without
// the framework or its checkers and kept as counts and order-independent
// digests, so the benchmark holds little memory of its own while the
// program runs.
type pipelineRef struct {
	reduceKeys   int    // ReduceByKey: distinct keys
	reduceDigest uint64 // ... digest of (key, sum) pairs from a map-based sum
	sortN        int    // Sort: elements
	sortDigest   uint64 // ... multiset digest of the input
	joinRows     int    // Join: rows of a single-process hash join
	joinDigest   uint64 // ... digest of its (key, left, right) rows
}

func rowDigest(key, left, right uint64) uint64 {
	return hashing.Mix64(hashing.Mix64(hashing.Mix64(key)+left) + right)
}

func referencePipeline(in pipelineInputs) pipelineRef {
	var ref pipelineRef
	sums := make(map[uint64]uint64)
	for _, share := range in.zipf {
		for _, p := range share {
			sums[p.Key] += p.Value
		}
	}
	ref.reduceKeys = len(sums)
	for k, v := range sums {
		ref.reduceDigest += rowDigest(k, v, 0)
	}
	for _, share := range in.sortIn {
		ref.sortN += len(share)
		for _, x := range share {
			ref.sortDigest += hashing.Mix64(x)
		}
	}
	build := make(map[uint64][]uint64)
	for _, share := range in.left {
		for _, p := range share {
			build[p.Key] = append(build[p.Key], p.Value)
		}
	}
	for _, share := range in.right {
		for _, p := range share {
			for _, lv := range build[p.Key] {
				ref.joinRows++
				ref.joinDigest += rowDigest(p.Key, lv, p.Value)
			}
		}
	}
	return ref
}

// pipelineOut is one PE's outputs of one pipeline job.
type pipelineOut struct {
	reduced []repro.Pair
	sorted  []uint64
	rows    []repro.JoinRow
}

// runPipelineJob runs reduce → sort → join on every PE with VerifyAsync
// between the stages and a final Verify.
func runPipelineJob(m *mesh, in pipelineInputs, mode repro.CheckMode, tr *obs.Tracer) (job, []pipelineOut, error) {
	opts := repro.DefaultOptions()
	opts.Mode = mode
	opts.Parallelism = 1
	opts.Tracer = tr
	out := make([]pipelineOut, pes)
	j, err := m.runJob(opts, func(ctx *repro.Context, r int, call caller) {
		o := &out[r]
		call("ReduceByKey", false, func() (err error) {
			o.reduced, err = ctx.Pairs(in.zipf[r]).ReduceByKey(repro.SumFn).Collect()
			return err
		})
		call("VerifyAsync", true, ctx.VerifyAsync)
		call("Sort", false, func() (err error) {
			o.sorted, err = ctx.Seq(in.sortIn[r]).Sort().Collect()
			return err
		})
		call("VerifyAsync", true, ctx.VerifyAsync)
		call("Join", false, func() (err error) {
			o.rows, err = ctx.Pairs(in.left[r]).Join(ctx.Pairs(in.right[r]))
			return err
		})
		call("Verify", false, ctx.Verify)
	})
	return j, out, err
}

// checkPipelineJob compares a job's outputs with the reference and its
// verdicts with the ground truth (every stage is clean, so every
// checked stage must pass). It counts three operations.
func checkPipelineJob(rep *report, n int, j job, out []pipelineOut, ref pipelineRef, mode repro.CheckMode) {
	rep.attempted += 3
	ok := [3]bool{true, true, true} // reduce, sort, join
	for r, rec := range j.ranks {
		if rec.rejected != nil {
			rep.fail("job %d PE %d: false alarm on clean inputs: %v", n, r, rec.rejected)
			return
		}
		if mode != repro.CheckOff {
			for i, st := range rec.stats {
				if st.Verdict != repro.VerdictPass && i < 3 {
					ok[i] = false
				}
			}
		}
	}
	// Reduce: every key once, with the reference sum. Sort: globally
	// sorted across PEs in rank order, same multiset. Join: same rows.
	seen := make(map[uint64]struct{}, ref.reduceKeys)
	var reduceDigest, sortDigest, joinDigest uint64
	var sortN, rows int
	var prev uint64
	for _, o := range out {
		for _, p := range o.reduced {
			seen[p.Key] = struct{}{}
			reduceDigest += rowDigest(p.Key, p.Value, 0)
		}
		for _, x := range o.sorted {
			if x < prev {
				ok[1] = false
			}
			prev = x
			sortN++
			sortDigest += hashing.Mix64(x)
		}
		for _, row := range o.rows {
			rows++
			joinDigest += rowDigest(row.Key, row.Left, row.Right)
		}
	}
	if len(seen) != ref.reduceKeys || reduceDigest != ref.reduceDigest {
		ok[0] = false
	}
	if sortN != ref.sortN || sortDigest != ref.sortDigest {
		ok[1] = false
	}
	if rows != ref.joinRows || joinDigest != ref.joinDigest {
		ok[2] = false
	}
	for i, name := range []string{"ReduceByKey", "Sort", "Join"} {
		if !ok[i] {
			rep.fail("job %d: %s output or verdict does not match the reference", n, name)
		}
	}
}

// detectPipeline injects effectiveness-checked corruptions into claimed
// outputs of the pipeline's own operations — every Table 4 manipulator
// into a ReduceByKey result, every Table 6 manipulator into a Sort
// result — and asserts them through the checkers.
func detectPipeline(m *mesh, rep *report, in pipelineInputs, sz pipelineSizes, seed uint64) (detection, error) {
	var det detection
	rng := hashing.NewMT19937_64(subSeed(seed, domDet, 0))
	_, clean, err := runPipelineJob(m, in, repro.CheckDeferred, nil)
	if err != nil {
		return det, fmt.Errorf("detection base job: %w", err)
	}
	for i, man := range manipulate.PairManipulators() {
		claim := make([][]repro.Pair, pes)
		for r := range pes {
			claim[r] = append([]repro.Pair(nil), clean[r].reduced...)
		}
		corruptPairs(claim[i%pes], man, rng, uint64(sz.universe))
		if err := det.expectRejected(m, rep, repro.CheckDeferred, "ReduceByKey/"+man.Name, func(ctx *repro.Context, r int) error {
			return ctx.AssertSum(in.zipf[r], claim[r])
		}); err != nil {
			return det, err
		}
	}
	for i, man := range manipulate.SeqManipulators() {
		claim := make([][]uint64, pes)
		for r := range pes {
			claim[r] = append([]uint64(nil), clean[r].sorted...)
		}
		corruptSeq(claim[i%pes], man, rng, 1<<63)
		if err := det.expectRejected(m, rep, repro.CheckDeferred, "Sort/"+man.Name, func(ctx *repro.Context, r int) error {
			return ctx.AssertSorted(in.sortIn[r], claim[r])
		}); err != nil {
			return det, err
		}
	}
	return det, nil
}

// runPipeline is the pipeline workload: one checked batch job per
// iteration over a p=2 TCP mesh, run back to back. Its unchecked
// baseline is the same job under CheckOff.
func runPipeline(opt options, rep *report) error {
	sz := pipelineFull
	if opt.tiny {
		sz = pipelineTiny
	}
	cfg := dist.Config{Transport: dist.TransportTCP, Timeout: opTimeout}
	m, setup, err := bringUpMeshes(cfg, opt.seed, sz.setups)
	if err != nil {
		return err
	}
	defer m.net.Close()

	in := genPipeline(sz, opt.seed)
	ref := referencePipeline(in)
	ph, err := measureBackToBack(opt, rep, func(n int, tr *obs.Tracer) (job, error) {
		j, out, err := runPipelineJob(m, in, repro.CheckDeferred, tr)
		if err == nil {
			checkPipelineJob(rep, n, j, out, ref, repro.CheckDeferred)
		}
		return j, err
	}, func() (float64, error) {
		j, out, err := runPipelineJob(m, in, repro.CheckOff, nil)
		if err == nil {
			checkPipelineJob(rep, -1, j, out, ref, repro.CheckOff)
		}
		return j.makespan, err
	})
	if err != nil {
		return err
	}
	det, err := detectPipeline(m, rep, in, sz, opt.seed)
	if err != nil {
		return err
	}
	ph.report(rep, setup, det)
	if opt.trace {
		keys := make([]uint64, 0, sz.reducePairs+sz.sortN+sz.joinN)
		for _, p := range in.zipf[0] {
			keys = append(keys, p.Key)
		}
		keys = append(keys, in.sortIn[0]...)
		for _, p := range in.left[0] {
			keys = append(keys, p.Key)
		}
		ph.reportLayers(rep, m.net, keys, opt.seed)
		if err := writeTrace(opt.traceDir, "pipeline", obs.Merge(ph.export)); err != nil {
			return err
		}
	}
	logf("pipeline: %d checked jobs, wall median %.3f s, detect %d/%d, failed %d of %d",
		len(ph.makespans), median(ph.makespans), det.detected, det.injected, rep.failed, rep.attempted)
	return nil
}
