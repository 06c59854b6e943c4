package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/obs"
	"repro/internal/service"
)

// serviceSizes shape the service workload.
type serviceSizes struct {
	elements   int    // elements per PE per job
	keys       uint64 // key universe of the pair jobs
	datasets   int    // distinct inputs per job kind, cycled
	batch      int    // closed-loop jobs per wall_s batch
	warmup     time.Duration
	setups     int // pool bring-ups timed for setup_s
	tracedJobs int // jobs of the traced closed loop
	traceJobs  int // jobs whose spans go into the Chrome trace
}

var (
	serviceFull = serviceSizes{elements: 2000, keys: 1 << 12, datasets: 16, batch: 256,
		warmup: 500 * time.Millisecond, setups: 100, tracedJobs: 4096, traceJobs: 1000}
	serviceTiny = serviceSizes{elements: 200, keys: 1 << 8, datasets: 4, batch: 32,
		warmup: 50 * time.Millisecond, setups: 2, tracedJobs: 128, traceJobs: 100}
)

const (
	svcRate         = 300 // open-loop arrival rate, jobs/s
	svcInFlight     = 64  // closed-loop jobs in flight (the pool's MaxConcurrent)
	svcCorruptEvery = 8   // every n-th claimed output is corrupted
	// svcSpansPerJob is the traced pool's ring size per traced job and
	// PE. A job leaves about 6 spans per PE; the run fails if a ring
	// wraps and logs how much of it was used.
	svcSpansPerJob = 32
	// maxLatencies is the latency buffer allocated before a measured
	// phase, so the phase's heap does not grow with its throughput.
	maxLatencies = 1 << 18
)

// The job kinds cycle in this order; the last two claim an output.
const (
	kindReduce = iota // ReduceByKey(SumFn) over the job's pairs
	kindSorted        // AssertSorted of a claimed global sort
	kindSum           // AssertSum of a claimed global reduction
	numKinds
)

var kindNames = [numKinds]string{"reduce-collect", "assert-sorted", "assert-sum"}

const (
	domSvcPairs = 0x73766370
	domSvcSeq   = 0x73766373
	domSvcBad   = 0x73766362
)

// svcDataset is one distinct input of each kind with its clean and
// corrupted claimed outputs, split per PE.
type svcDataset struct {
	pairs           [][]repro.Pair // reduce-collect and assert-sum input
	sumClaim        [][]repro.Pair // correct global per-key sums
	sumBad          [][]repro.Pair // sumClaim with one share manipulated
	seqIn           [][]uint64     // assert-sorted input
	sortClaim       [][]uint64     // correct global sort
	sortBad         [][]uint64     // sortClaim with one share manipulated
	pairElems       int            // input plus output elements of a reduce-collect or assert-sum job
	sortElems       int            // ... of an assert-sorted job
	pairKeys, words []uint64       // PE 0's keys, for the hash probe
}

func genServiceData(sz serviceSizes, seed uint64) []svcDataset {
	rng := hashing.NewMT19937_64(subSeed(seed, domSvcBad, 0))
	pairMs, seqMs := manipulate.PairManipulators(), manipulate.SeqManipulators()
	out := make([]svcDataset, sz.datasets)
	for d := range out {
		ds := &out[d]
		prng := hashing.NewMT19937_64(subSeed(seed, domSvcPairs, d))
		srng := hashing.NewMT19937_64(subSeed(seed, domSvcSeq, d))
		sums := map[uint64]uint64{}
		var all []uint64
		for range pes {
			ps := make([]repro.Pair, sz.elements)
			xs := make([]uint64, sz.elements)
			for i := range ps {
				ps[i] = repro.Pair{Key: prng.Uint64n(sz.keys), Value: prng.Uint64n(1 << 20)}
				sums[ps[i].Key] += ps[i].Value
				xs[i] = srng.Uint64()
			}
			ds.pairs = append(ds.pairs, ps)
			ds.seqIn = append(ds.seqIn, xs)
			all = append(all, xs...)
		}
		data.SortU64(all)
		global := data.MapToPairs(sums)
		sort.Slice(global, func(i, j int) bool { return global[i].Key < global[j].Key })
		for r := range pes {
			lo, hi := data.SplitEven(len(global), pes, r)
			ds.sumClaim = append(ds.sumClaim, global[lo:hi])
			ds.sumBad = append(ds.sumBad, append([]repro.Pair(nil), global[lo:hi]...))
			lo, hi = data.SplitEven(len(all), pes, r)
			ds.sortClaim = append(ds.sortClaim, all[lo:hi])
			ds.sortBad = append(ds.sortBad, append([]uint64(nil), all[lo:hi]...))
		}
		corruptPairs(ds.sumBad[d%pes], pairMs[d%len(pairMs)], rng, sz.keys)
		corruptSeq(ds.sortBad[d%pes], seqMs[d%len(seqMs)], rng, 1<<63)
		ds.pairElems = pes*sz.elements + len(global)
		ds.sortElems = 2 * pes * sz.elements
		for _, p := range ds.pairs[0] {
			ds.pairKeys = append(ds.pairKeys, p.Key)
		}
		ds.words = ds.seqIn[0]
	}
	return out
}

// svcJob is one submitted job and what the benchmark saw of it.
type svcJob struct {
	kind, ds     int
	corrupt      bool
	mode         repro.CheckMode
	due          int64 // Unix ns the open loop scheduled it for (0 in the closed loop)
	call, adm    int64 // Unix ns around Submit: called, admitted
	h            *service.Job
	enter, leave [pes]int64 // Unix ns around the body on each PE
	ckBytes      [pes]int64 // Context.TotalCheckerBytes on each PE
	elems        int
	failed       bool
	rejected     bool
	latencyMs    float64 // from due (open loop) or call (closed loop) to completion
	completionNs int64
}

// svcLoad generates the job sequence: kinds cycle, datasets cycle per
// kind, and every svcCorruptEvery-th claimed output is corrupted. One
// goroutine drives it.
type svcLoad struct {
	data    []svcDataset
	next    int // job sequence number
	claims  int // claimed outputs so far
	checked repro.Options
}

func (l *svcLoad) nextJob(mode repro.CheckMode) *svcJob {
	n := l.next
	l.next++
	j := &svcJob{kind: n % numKinds, ds: (n / numKinds) % len(l.data), mode: mode}
	ds := &l.data[j.ds]
	j.elems = ds.pairElems
	if j.kind == kindSorted {
		j.elems = ds.sortElems
	}
	if j.kind != kindReduce && mode != repro.CheckOff {
		l.claims++
		j.corrupt = l.claims%svcCorruptEvery == 0
	}
	return j
}

// submit admits j onto the pool, blocking on the pool's backpressure.
func (l *svcLoad) submit(pool *service.Pool, j *svcJob) error {
	ds := &l.data[j.ds]
	opts := l.checked
	opts.Mode = j.mode
	sortClaim, sumClaim := ds.sortClaim, ds.sumClaim
	if j.corrupt {
		sortClaim, sumClaim = ds.sortBad, ds.sumBad
	}
	body := func(ctx *repro.Context) error {
		r := ctx.Worker().Rank()
		j.enter[r] = time.Now().UnixNano()
		var err error
		switch j.kind {
		case kindReduce:
			_, err = ctx.Pairs(ds.pairs[r]).ReduceByKey(repro.SumFn).Collect()
		case kindSorted:
			err = ctx.AssertSorted(ds.seqIn[r], sortClaim[r])
		case kindSum:
			err = ctx.AssertSum(ds.pairs[r], sumClaim[r])
		}
		// Verifying here rather than leaving it to the pool lets the
		// body read every PE's checker traffic afterwards.
		if verr := ctx.Verify(); err == nil {
			err = verr
		}
		j.ckBytes[r] = ctx.TotalCheckerBytes()
		j.leave[r] = time.Now().UnixNano()
		return err
	}
	j.call = time.Now().UnixNano()
	h, err := pool.SubmitWith(kindNames[j.kind], opts, body)
	j.adm = time.Now().UnixNano()
	if err != nil {
		return fmt.Errorf("submit %s: %w", kindNames[j.kind], err)
	}
	j.h = h
	return nil
}

// settle waits for j and judges its verdict against the injected ground
// truth: a corrupted claim must be rejected, a clean one must pass, and
// no job may fail otherwise. A failed job misses every latency limit.
func settle(rep *report, j *svcJob) {
	<-j.h.Done()
	err := j.h.Err()
	j.rejected = errors.Is(err, repro.ErrCheckFailed)
	j.completionNs = j.adm + j.h.Cost().WallNs
	from := j.call
	if j.due != 0 {
		from = j.due
	}
	j.latencyMs = float64(j.completionNs-from) / 1e6
	rep.attempted++
	switch {
	case err != nil && !j.rejected:
		j.failed = true
		rep.fail("job %d (%s): %v", j.h.ID(), kindNames[j.kind], err)
	case j.corrupt && !j.rejected:
		j.failed = true
		rep.fail("job %d (%s): corrupted claim escaped the checker", j.h.ID(), kindNames[j.kind])
	case !j.corrupt && j.rejected:
		j.failed = true
		rep.fail("job %d (%s): false alarm on a clean claim", j.h.ID(), kindNames[j.kind])
	}
	if j.failed {
		j.latencyMs = math.Inf(1)
	}
}

// svcTally folds a phase's settled jobs into its figures as they
// finish, so the phase holds only the jobs still in the pool and its
// heap does not grow with its length or throughput. Only a traced
// pool's phases keep their jobs, for the budget.
type svcTally struct {
	lo, hi      int64 // throughput window, Unix ns
	windowSecs  float64
	done, elems int       // jobs completed without failure inside the window, their elements
	latMs       []float64 // allocated for maxLatencies jobs up front
	lateMs      []float64 // open loop: how late the generator submitted each job
	batch       int
	inBatch     int
	batchStart  int64 // first Submit call of the current batch
	batchEnd    int64 // latest completion in the current batch
	makespans   []float64
	ckBytes     float64
	ckJobs      int
	injected    int
	detected    int
	layers      *svcLayers // nil unless the per-layer figures are wanted
	keep        bool
	kept        []*svcJob
}

func newTally(batch int, layers, keep bool) *svcTally {
	t := &svcTally{batch: batch, keep: keep, latMs: make([]float64, 0, maxLatencies)}
	if layers {
		t.layers = &svcLayers{}
	}
	return t
}

// window sets the throughput window to [start+warmup, start+dur].
func (t *svcTally) window(start time.Time, warmup, dur time.Duration) {
	t.lo, t.hi = start.Add(warmup).UnixNano(), start.Add(dur).UnixNano()
	t.windowSecs = (dur - warmup).Seconds()
}

// add folds one settled job in. Jobs arrive in submission order, so
// consecutive batches of t.batch jobs close as their last job settles.
func (t *svcTally) add(j *svcJob) {
	t.latMs = append(t.latMs, j.latencyMs)
	if j.due != 0 {
		t.lateMs = append(t.lateMs, float64(j.call-j.due)/1e6)
	}
	if j.corrupt {
		t.injected++
		if j.rejected {
			t.detected++
		}
	}
	if t.inBatch == 0 {
		t.batchStart, t.batchEnd = j.call, j.call
	}
	t.batchEnd = max(t.batchEnd, j.completionNs)
	if t.inBatch++; t.inBatch == t.batch {
		t.makespans = append(t.makespans, float64(t.batchEnd-t.batchStart)/1e9)
		t.inBatch = 0
	}
	if j.failed {
		return
	}
	if j.completionNs >= t.lo && j.completionNs <= t.hi {
		t.done++
		t.elems += j.elems
	}
	t.ckBytes += float64(max(j.ckBytes[0], j.ckBytes[1]))
	t.ckJobs++
	if t.layers != nil {
		t.layers.add(j)
	}
	if t.keep {
		t.kept = append(t.kept, j)
	}
}

// throughput is the jobs completed inside the window and the elements
// they checked, per second.
func (t *svcTally) throughput() (jobsPerS, melemsPerS float64) {
	return ratio(float64(t.done), t.windowSecs), ratio(float64(t.elems), t.windowSecs) / 1e6
}

// drive submits the jobs next returns until it returns nil. After each
// Submit it settles, without blocking, the finished jobs at the head of
// the submission queue; at the end it waits for the rest.
func (l *svcLoad) drive(rep *report, pool *service.Pool, t *svcTally, next func() *svcJob) error {
	var pending []*svcJob
	settleHead := func(block bool) {
		for len(pending) > 0 {
			j := pending[0]
			if !block {
				select {
				case <-j.h.Done():
				default:
					return
				}
			}
			settle(rep, j)
			t.add(j)
			pending[0] = nil
			pending = pending[1:]
		}
	}
	for j := next(); j != nil; j = next() {
		if err := l.submit(pool, j); err != nil {
			settleHead(true)
			return err
		}
		pending = append(pending, j)
		settleHead(false)
	}
	settleHead(true)
	return nil
}

// paced runs the open loop: one job every 1/svcRate seconds for dur,
// each due at its scheduled time whether or not earlier jobs finished.
// The number of jobs depends on dur only.
func (l *svcLoad) paced(rep *report, pool *service.Pool, t *svcTally, dur time.Duration) error {
	period := time.Second / svcRate
	start := time.Now()
	t.window(start, 0, dur)
	i := 0
	return l.drive(rep, pool, t, func() *svcJob {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= dur {
			return nil
		}
		i++
		time.Sleep(time.Until(due))
		j := l.nextJob(repro.CheckDeferred)
		j.due = due.UnixNano()
		return j
	})
}

// saturated runs the closed loop: Submit blocks while svcInFlight jobs
// are running, so the pool always holds that many. It runs for dur, or
// for exactly jobs jobs when jobs > 0.
func (l *svcLoad) saturated(rep *report, pool *service.Pool, t *svcTally, dur, warmup time.Duration, jobs int, mode repro.CheckMode) error {
	start := time.Now()
	t.window(start, warmup, dur)
	n := 0
	return l.drive(rep, pool, t, func() *svcJob {
		if jobs > 0 && n == jobs || jobs == 0 && time.Since(start) >= dur {
			return nil
		}
		n++
		return l.nextJob(mode)
	})
}

// svcPool is a brought-up pool over a caller-owned TCP network.
type svcPool struct {
	net  comm.Network
	pool *service.Pool
}

func (p *svcPool) close() error {
	perr := p.pool.Close()
	nerr := p.net.Close()
	return errors.Join(perr, nerr)
}

func bringUpPool(seed uint64, opts repro.Options, tr *obs.Tracer) (*svcPool, setupTimes, error) {
	var st setupTimes
	cfg := dist.Config{Transport: dist.TransportTCP, Timeout: opTimeout}
	t0 := time.Now()
	net, err := cfg.NewNetwork(pes)
	if err != nil {
		return nil, st, fmt.Errorf("bring up network: %w", err)
	}
	t1 := time.Now()
	pool, err := service.NewOnNetwork(net, service.Options{P: pes, Seed: seed, Repro: opts, MaxConcurrent: svcInFlight, Tracer: tr})
	if err != nil {
		net.Close()
		return nil, st, fmt.Errorf("start pool: %w", err)
	}
	st.meshNs = t1.Sub(t0).Nanoseconds()
	st.workersNs = time.Since(t1).Nanoseconds()
	return &svcPool{net: net, pool: pool}, st, nil
}

// svcLayers derives the per-layer figures of checked jobs from what
// the pool exposes per job (JobCost, CheckStats, VerifySummary).
type svcLayers struct {
	jobs                                   int
	admitNs, queueNs                       float64
	jobMs                                  []float64
	checkNs, opNs, opBytes                 float64
	reduceNs, reduces                      float64
	rounds, words, bytes, costRounds, msgs float64
}

func (s *svcLayers) add(j *svcJob) {
	s.jobs++
	s.admitNs += float64(j.adm - j.call)
	s.queueNs += float64(max(j.enter[0], j.enter[1]) - j.adm)
	cost := j.h.Cost()
	s.jobMs = append(s.jobMs, float64(cost.WallNs)/1e6)
	s.bytes += float64(cost.Bytes)
	s.costRounds += float64(cost.Rounds)
	s.msgs += float64(cost.Msgs)
	stats := j.h.Stats()
	for _, st := range stats {
		s.checkNs += float64(st.CheckNs)
		s.opNs += float64(st.OpNs)
		s.opBytes += float64(st.OpBytes)
		if st.Op == "ReduceByKey" {
			s.reduceNs += float64(st.OpNs)
			s.reduces++
		}
	}
	r, w := resolveCounts(stats, j.h.Summaries())
	s.rounds += float64(r)
	s.words += float64(w)
}

func (s *svcLayers) report(rep *report) {
	n := float64(s.jobs)
	rep.set("service.admit_wait_ms", ratio(s.admitNs, n)/1e6)
	rep.set("service.queue_ms", ratio(s.queueNs, n)/1e6)
	rep.set("service.job_ms", median(s.jobMs))
	rep.set("service.bytes_per_job", ratio(s.bytes, n))
	rep.set("service.rounds_per_job", ratio(s.costRounds, n))
	rep.set("core.check_frac", ratio(s.checkNs, s.opNs))
	rep.set("core.resolve_rounds", ratio(s.rounds, n))
	rep.set("core.batch_words", ratio(s.words, n))
	rep.set("ops.reduce_ms", ratio(s.reduceNs, s.reduces)/1e6)
	rep.set("ops.op_bytes_per_pe", ratio(s.opBytes, n))
	rep.set("comm.msgs_per_pe", ratio(s.msgs, n))
}

// runService is the service workload on a resident pool over a p=2
// TCP mesh. The untraced run is a closed loop holding svcInFlight jobs
// in the pool for the whole measured phase. The traced run gives a
// fifth of its time each to the closed loop, the open loop at a fixed
// rate and the closed loop with checking off; then, on a second pool
// with a tracer installed, it runs the open loop for another fifth and
// the closed loop for a fixed number of jobs, so the number of traced
// spans does not depend on how fast the pool is.
func runService(opt options, rep *report) error {
	sz := serviceFull
	if opt.tiny {
		sz = serviceTiny
	}
	checked := repro.DefaultOptions()
	checked.Mode = repro.CheckDeferred
	checked.Parallelism = 1

	sp, setup, err := bringUpRepeated(sz.setups, func() (*svcPool, setupTimes, error) {
		return bringUpPool(opt.seed, checked, nil)
	}, (*svcPool).close)
	if err != nil {
		return err
	}
	defer sp.close()

	load := &svcLoad{data: genServiceData(sz, opt.seed), checked: checked}
	total := time.Duration(opt.seconds * float64(time.Second))
	phase := total
	if opt.trace {
		phase = total / 5
	}
	warm := min(sz.warmup, phase/4)
	warmUp(load, sp.pool)

	sat := newTally(sz.batch, opt.trace, false)
	runtime.GC()
	heap := startHeapSampler()
	wire0 := comm.NetworkMeter(sp.net).WireSent
	err = load.saturated(rep, sp.pool, sat, phase, warm, 0, repro.CheckDeferred)
	wire := comm.NetworkMeter(sp.net).WireSent - wire0
	peak := heap.stopMB()
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	jps, melems := sat.throughput()

	setup.report(rep)
	rep.set("wall_s", median(sat.makespans))
	rep.set("p50_ms", quantile(sat.latMs, 0.50))
	rep.set("p99_ms", quantile(sat.latMs, 0.99))
	rep.set("jobs_per_s", jps)
	rep.set("melems_per_s", melems)
	rep.set("checker_bytes_per_pe", ratio(sat.ckBytes, float64(sat.ckJobs)))
	rep.set("detect_rate", ratio(float64(sat.detected), float64(sat.injected)))
	rep.set("ok_rate", rep.okRate())
	rep.set("peak_heap_mb", peak)
	logf("service: closed loop %d jobs, %.1f jobs/s, latency p50 %.3f ms p99 %.3f ms, high water %d; detect %d/%d; failed %d of %d",
		len(sat.latMs), jps, quantile(sat.latMs, 0.5), quantile(sat.latMs, 0.99), sp.pool.Stats().HighWater,
		sat.detected, sat.injected, rep.failed, rep.attempted)
	if !opt.trace {
		return nil
	}

	sat.layers.report(rep)
	rep.set("service.in_flight_max", float64(sp.pool.Stats().HighWater))
	rep.set("comm.wire_bytes_per_pe", ratio(float64(wire), float64(len(sat.latMs))*pes))
	rep.set("comm.conns_open", connsOpen(sp.net))

	pacedT := newTally(sz.batch, false, false)
	if err := load.paced(rep, sp.pool, pacedT, phase); err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	rep.set("service.paced_p50_ms", quantile(pacedT.latMs, 0.50))
	rep.set("service.paced_p99_ms", quantile(pacedT.latMs, 0.99))
	rep.set("service.gen_late_ms", quantile(pacedT.lateMs, 0.99))
	logf("service: open loop %d jobs at %d/s, latency p50 %.3f ms p99 %.3f ms, generator late p99 %.3f ms",
		len(pacedT.latMs), svcRate, quantile(pacedT.latMs, 0.5), quantile(pacedT.latMs, 0.99), quantile(pacedT.lateMs, 0.99))

	off := newTally(sz.batch, false, false)
	if err := load.saturated(rep, sp.pool, off, phase, warm, 0, repro.CheckOff); err != nil {
		return fmt.Errorf("closed loop with checking off: %w", err)
	}
	offJps, _ := off.throughput()
	rep.set("core.overhead_vs_off", ratio(offJps, jps))

	var keys []uint64
	for _, ds := range load.data {
		keys = append(keys, ds.pairKeys...)
		keys = append(keys, ds.words...)
	}
	crc, tab := hashProbe(keys, opt.seed)
	rep.set("hashing.crc_ns_per_key", crc)
	rep.set("hashing.tab_ns_per_key", tab)
	zero(rep, "ops.sort_ms", "ops.join_ms", "stream.chunks", "stream.peak_resident")

	// The traced pool runs the warm-up, the open loop and the closed
	// loop, a number of jobs fixed by --seconds and the sizes.
	pacedJobs := int(math.Ceil(phase.Seconds() * svcRate))
	ringSlots := (numKinds + pacedJobs + sz.tracedJobs) * svcSpansPerJob
	tr := obs.NewTracer(pes, ringSlots)
	tp, _, err := bringUpPool(opt.seed, checked, tr)
	if err != nil {
		return err
	}
	defer tp.close()
	warmUp(load, tp.pool)
	tpaced := newTally(sz.batch, false, true)
	if err := load.paced(rep, tp.pool, tpaced, phase); err != nil {
		return fmt.Errorf("traced open loop: %w", err)
	}
	tsat := newTally(sz.batch, false, true)
	if err := load.saturated(rep, tp.pool, tsat, 0, 0, sz.tracedJobs, repro.CheckDeferred); err != nil {
		return fmt.Errorf("traced closed loop: %w", err)
	}
	rep.set("trace_overhead", ratio(median(tsat.makespans), median(sat.makespans))-1)
	if tr.Dropped() > 0 {
		return fmt.Errorf("tracer dropped %d spans; the budget would be incomplete", tr.Dropped())
	}
	used := max(len(tr.SpansOf(0)), len(tr.SpansOf(1)))
	logf("service: traced pool used %d of %d span slots per PE (%.1f per job)",
		used, ringSlots, float64(used)/float64(numKinds+pacedJobs+sz.tracedJobs))

	// Budget on each job's first PE, whose CheckStats the pool keeps:
	// the job's life runs from the Submit call to completion. The pool
	// reports two of its parts, the Submit wait and the queue before
	// the body starts; they are the service layer's. The rest of the
	// life outside the program's spans is unattributed.
	byJob := map[int64][]obs.Span{}
	for _, s := range tr.SpansOf(0) {
		byJob[s.Job] = append(byJob[s.Job], s)
	}
	budget := newLayerSums()
	var exportSpans []obs.Span
	for i, j := range append(tpaced.kept, tsat.kept...) {
		lo, _ := j.h.TagBlock()
		spans := byJob[j.h.ID()]
		ivs := laneIntervals(spans, int64(lo), j.h.Stats(), nil)
		ivs = append(ivs, ival{j.call, j.adm, clsService}, ival{j.adm, j.enter[0], clsService})
		budget.addLane(ival{j.call, j.completionNs, clsRoot}, ivs, spans)
		if i < sz.traceJobs {
			body := []benchSpan{{name: "body", start: j.enter[0], end: j.leave[0]}}
			exportSpans = append(exportSpans, spans...)
			exportSpans = append(exportSpans, benchSpansToObs(0, j.h.ID(), int64(lo), body)...)
		}
	}
	budget.report(rep)
	return writeTrace(opt.traceDir, "service", obs.Merge(exportSpans))
}

// warmUp runs one untimed job of each kind on a fresh pool.
func warmUp(load *svcLoad, pool *service.Pool) {
	for range numKinds {
		j := load.nextJob(repro.CheckDeferred)
		if load.submit(pool, j) == nil {
			settle(newReport(false), j)
		}
	}
}
