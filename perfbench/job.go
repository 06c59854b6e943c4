package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/obs"
)

// rankRec is one PE's record of one job.
type rankRec struct {
	start, end   int64 // Unix ns around the job's calls
	stats        []repro.CheckStats
	sums         []repro.VerifySummary
	checkerBytes int64
	rejected     error       // a checker rejection; on clean inputs, a false alarm
	calls        []benchSpan // recorded when the job is traced
}

// job is one run of a workload's job on every PE.
type job struct {
	ranks     []rankRec
	makespan  float64 // seconds from the first PE's start to the last PE's end
	msgs      []int64 // messages sent per PE
	wireBytes int64   // socket bytes sent, all PEs
	traced    bool
}

// caller makes one call into the library. When the job is traced the
// benchmark records a span named name around it; async marks a call
// whose work outlives it (VerifyAsync). After a failed call the later
// ones are skipped.
type caller func(name string, async bool, f func() error)

// runJob runs body on every PE with a fresh Context built from opts;
// a non-nil opts.Tracer is installed through repro.Options. Body makes
// its library calls through call. A checker rejection ends a PE's job
// and is recorded in its rankRec, not returned.
func (m *mesh) runJob(opts repro.Options, body func(ctx *repro.Context, r int, call caller)) (job, error) {
	j := job{ranks: make([]rankRec, pes), traced: opts.Tracer != nil}
	msgs0 := m.msgsSent()
	wire0 := comm.NetworkMeter(m.net).WireSent
	err := m.spmd(func(w *dist.Worker) error {
		r := w.Rank()
		rec := &j.ranks[r]
		if opts.Tracer == nil {
			w.SetTracer(nil) // a previous traced job installed one
		}
		var first error
		call := func(name string, async bool, f func() error) {
			if first != nil {
				return
			}
			if !j.traced {
				first = f()
				return
			}
			s := time.Now().UnixNano()
			first = f()
			rec.calls = append(rec.calls, benchSpan{name: name, start: s, end: time.Now().UnixNano(), async: async})
		}
		rec.start = time.Now().UnixNano()
		var ctx *repro.Context
		call("NewContext", false, func() (err error) {
			ctx, err = repro.NewContext(w, opts)
			return err
		})
		if first == nil {
			body(ctx, r, call)
		}
		rec.end = time.Now().UnixNano()
		if ctx != nil {
			rec.stats = ctx.Stats()
			rec.sums = ctx.VerifySummaries()
			rec.checkerBytes = ctx.TotalCheckerBytes()
		}
		if errors.Is(first, repro.ErrCheckFailed) {
			rec.rejected = first
			return nil
		}
		return first
	})
	if err != nil {
		return j, err
	}
	start, end := j.ranks[0].start, j.ranks[0].end
	for _, rec := range j.ranks[1:] {
		start, end = min(start, rec.start), max(end, rec.end)
	}
	j.makespan = float64(end-start) / 1e9
	msgs1 := m.msgsSent()
	j.msgs = make([]int64, pes)
	for r := range pes {
		j.msgs[r] = msgs1[r] - msgs0[r]
	}
	j.wireBytes = comm.NetworkMeter(m.net).WireSent - wire0
	return j, nil
}

// counts are the job's figures for the exact-count gate: they depend
// only on the seed, never on timing. collOps is the collective count
// of a traced job.
func (j job) counts(collOps int64) map[string]int64 {
	c := map[string]int64{"checker_bytes_per_pe": 0, "comm.msgs_per_pe": 0, "stream.chunks": 0}
	for r, rec := range j.ranks {
		c["checker_bytes_per_pe"] = max(c["checker_bytes_per_pe"], rec.checkerBytes)
		c["comm.msgs_per_pe"] = max(c["comm.msgs_per_pe"], j.msgs[r])
	}
	c["core.resolve_rounds"], c["core.batch_words"] = resolveCounts(j.ranks[0].stats, j.ranks[0].sums)
	for _, st := range j.ranks[0].stats {
		c["stream.chunks"] += int64(st.Chunks)
	}
	if j.traced {
		c["collective.ops"] = collOps
	}
	return c
}

// resolveCounts sums one PE's resolve rounds (inline and batched) and
// batched resolve words.
func resolveCounts(stats []repro.CheckStats, sums []repro.VerifySummary) (rounds, words int64) {
	for _, st := range stats {
		rounds += int64(st.CheckerRounds)
	}
	for _, s := range sums {
		rounds += int64(s.Rounds)
		words += int64(s.Words)
	}
	return rounds, words
}

// detection tallies injected corruptions and the checkers' rejections.
type detection struct{ injected, detected int }

// expectRejected asserts one corrupted claim on every PE through a
// fresh Context in mode, outside any timed region. Both PEs must reject
// it; an accepted corruption is a failed operation.
func (d *detection) expectRejected(m *mesh, rep *report, mode repro.CheckMode, name string, assert func(ctx *repro.Context, r int) error) error {
	opts := repro.DefaultOptions()
	opts.Mode = mode
	opts.Parallelism = 1
	j, err := m.runJob(opts, func(ctx *repro.Context, r int, call caller) {
		call("assert", false, func() error { return assert(ctx, r) })
		call("Verify", false, ctx.Verify)
	})
	if err != nil {
		return fmt.Errorf("detection run %s: %w", name, err)
	}
	d.injected++
	rep.attempted++
	if j.ranks[0].rejected != nil && j.ranks[1].rejected != nil {
		d.detected++
	} else {
		rep.fail("corruption %s escaped the checker", name)
	}
	return nil
}

// phase is what a back-to-back measured phase saw.
type phase struct {
	makespans        []float64 // checked, untraced jobs
	traced, baseline []float64 // makespans of traced jobs and unchecked baselines
	elems            float64   // input plus output elements of the checked jobs
	checkNs, opNs    float64
	opMs             map[string][]float64 // per operation: OpNs, max over PEs
	opBytes, wire    []float64            // per job: OpBytes (max over PEs), socket bytes per PE
	peakResident     int
	gate             countGate
	layers           *layerSums
	export           []obs.Span // spans of the traced jobs, for the Chrome trace
	maxSpans         int        // most spans one traced job left on one PE
	peakMB           float64
}

func (ph *phase) add(j job) {
	ph.makespans = append(ph.makespans, j.makespan)
	opMs := map[string]float64{}
	var ob int64
	for _, rec := range j.ranks {
		var b int64
		for _, st := range rec.stats {
			ph.elems += float64(st.ElementsIn + st.ElementsOut)
			ph.checkNs += float64(st.CheckNs)
			ph.opNs += float64(st.OpNs)
			ph.peakResident = max(ph.peakResident, st.PeakResident)
			b += st.OpBytes
			if st.OpNs > 0 {
				opMs[st.Op] = max(opMs[st.Op], float64(st.OpNs)/1e6)
			}
		}
		ob = max(ob, b)
	}
	for op, ms := range opMs {
		ph.opMs[op] = append(ph.opMs[op], ms)
	}
	ph.opBytes = append(ph.opBytes, float64(ob))
	ph.wire = append(ph.wire, float64(j.wireBytes)/pes)
}

// addTraced budgets a traced job on every PE and keeps its spans.
func (ph *phase) addTraced(tr *obs.Tracer, rep *report, n int, j job) {
	ph.traced = append(ph.traced, j.makespan)
	var collOps int64
	for r, rec := range j.ranks {
		all := tr.SpansOf(r)
		ph.maxSpans = max(ph.maxSpans, len(all))
		spans := spansIn(all, rec.start, rec.end)
		ph.layers.addLane(ival{rec.start, rec.end, clsRoot}, laneIntervals(spans, 0, rec.stats, rec.calls), spans)
		ph.export = append(ph.export, spans...)
		ph.export = append(ph.export, benchSpansToObs(r, 0, 0, rec.calls)...)
		if r == 0 {
			for _, s := range spans {
				if s.Kind == obs.KindCollective {
					collOps++
				}
			}
		}
	}
	ph.gate.check(rep, n, j.counts(collOps))
}

// jobSpanSlots is the tracer ring size per PE of one traced job. A
// pipeline job leaves about 30 spans per PE and a stream job about 10; the
// run fails if a ring wraps and logs how much of it was used.
const jobSpanSlots = 1 << 13

// measureBackToBack runs a workload's jobs back to back — a closed
// loop with one client — for the measured phase, after one untimed
// warm-up job. run runs and checks one job; baseline runs the
// unchecked counterpart and returns its makespan. The untraced run
// measures checked jobs only. The traced run rotates through a checked
// job, a traced checked job and a baseline, so tracing and checking
// overheads compare neighbouring jobs. Each traced job gets a tracer
// of its own, so the span count does not grow with the run's length.
func measureBackToBack(opt options, rep *report, run func(n int, tr *obs.Tracer) (job, error), baseline func() (float64, error)) (*phase, error) {
	if _, err := run(-1, nil); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	const (
		checkedJob = iota
		tracedJob
		baselineJob
	)
	rotation := []int{checkedJob}
	if opt.trace {
		rotation = append(rotation, tracedJob, baselineJob)
	}
	ph := &phase{opMs: map[string][]float64{}, layers: newLayerSums()}
	runtime.GC() // start from a settled heap, without the garbage of input generation
	heap := startHeapSampler()
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for n := 0; n < len(rotation) || time.Now().Before(deadline); n++ {
		switch rotation[n%len(rotation)] {
		case baselineJob:
			d, err := baseline()
			if err != nil {
				heap.stopMB()
				return nil, fmt.Errorf("baseline %d: %w", n, err)
			}
			ph.baseline = append(ph.baseline, d)
		case tracedJob:
			tr := obs.NewTracer(pes, jobSpanSlots)
			j, err := run(n, tr)
			if err == nil && tr.Dropped() > 0 {
				err = fmt.Errorf("tracer dropped %d spans; the budget would be incomplete", tr.Dropped())
			}
			if err != nil {
				heap.stopMB()
				return nil, fmt.Errorf("job %d: %w", n, err)
			}
			ph.addTraced(tr, rep, n, j)
		default:
			j, err := run(n, nil)
			if err != nil {
				heap.stopMB()
				return nil, fmt.Errorf("job %d: %w", n, err)
			}
			ph.add(j)
			ph.gate.check(rep, n, j.counts(0))
		}
	}
	ph.peakMB = heap.stopMB()
	if opt.trace {
		logf("a traced job used at most %d of %d span slots per PE", ph.maxSpans, jobSpanSlots)
	}
	return ph, nil
}

// report sets the end-to-end metrics of a back-to-back workload.
func (ph *phase) report(rep *report, setup setupSamples, det detection) {
	var ms []float64
	for _, s := range ph.makespans {
		ms = append(ms, s*1e3)
	}
	setup.report(rep)
	rep.set("wall_s", median(ph.makespans))
	rep.set("p50_ms", quantile(ms, 0.50))
	rep.set("p99_ms", quantile(ms, 0.99))
	rep.set("jobs_per_s", ratio(float64(len(ph.makespans)), sum(ph.makespans)))
	rep.set("melems_per_s", ratio(ph.elems, sum(ph.makespans))/1e6)
	rep.set("checker_bytes_per_pe", float64(ph.gate.first["checker_bytes_per_pe"]))
	rep.set("detect_rate", ratio(float64(det.detected), float64(det.injected)))
	rep.set("ok_rate", rep.okRate())
	rep.set("peak_heap_mb", ph.peakMB)
}

// reportLayers sets the per-layer metrics of a traced back-to-back run.
// A workload without an operation (CheckStats.OpNs is 0, as in a
// stream) compares its checker time with the unchecked baseline's.
func (ph *phase) reportLayers(rep *report, net comm.Network, probeKeys []uint64, seed uint64) {
	crc, tab := hashProbe(probeKeys, seed)
	rep.set("hashing.crc_ns_per_key", crc)
	rep.set("hashing.tab_ns_per_key", tab)
	opNs := ph.opNs
	if opNs == 0 {
		opNs = median(ph.baseline) * 1e9 * pes * float64(len(ph.makespans))
	}
	rep.set("core.check_frac", ratio(ph.checkNs, opNs))
	rep.set("core.overhead_vs_off", ratio(median(ph.makespans), median(ph.baseline)))
	rep.set("core.resolve_rounds", float64(ph.gate.first["core.resolve_rounds"]))
	rep.set("core.batch_words", float64(ph.gate.first["core.batch_words"]))
	rep.set("ops.reduce_ms", median(ph.opMs["ReduceByKey"]))
	rep.set("ops.sort_ms", median(ph.opMs["Sort"]))
	rep.set("ops.join_ms", median(ph.opMs["Join"]))
	rep.set("ops.op_bytes_per_pe", median(ph.opBytes))
	rep.set("comm.wire_bytes_per_pe", median(ph.wire))
	rep.set("comm.msgs_per_pe", float64(ph.gate.first["comm.msgs_per_pe"]))
	rep.set("comm.conns_open", connsOpen(net))
	rep.set("stream.chunks", float64(ph.gate.first["stream.chunks"]))
	rep.set("stream.peak_resident", float64(ph.peakResident))
	ph.layers.report(rep)
	rep.set("trace_overhead", ratio(median(ph.traced), median(ph.makespans))-1)
	zero(rep, "service.admit_wait_ms", "service.queue_ms", "service.job_ms", "service.in_flight_max",
		"service.bytes_per_job", "service.rounds_per_job", "service.gen_late_ms", "service.paced_p50_ms",
		"service.paced_p99_ms")
}

// zero sets per-layer metrics that do not apply to a workload.
func zero(rep *report, names ...string) {
	for _, n := range names {
		rep.set(n, 0)
	}
}
