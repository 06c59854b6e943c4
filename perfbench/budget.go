package main

import (
	"sort"

	"repro"
	"repro/internal/obs"
)

// Layer classes of the self-time budget. Every nanosecond of a job's
// lane on one PE lands in exactly one class: the innermost interval
// covering it. Only what a layer reports itself makes an interval; the
// root class is the job's own span, so its self time is the time no
// layer accounts for.
const (
	clsRoot       = "root"       // the job span: unattributed
	clsCore       = "core"       // Context stages outside their operation and checker parts
	clsOps        = "ops"        // local operation work (CheckStats.OpNs minus its collectives)
	clsAccumulate = "accumulate" // checker accumulation (CheckStats.CheckNs minus inline resolve)
	clsResolve    = "resolve"    // resolve rounds on the job's lane minus their collectives
	clsCollective = "collective" // collective operations minus their receive waits
	clsComm       = "comm"       // receive waits: mux and transport
	clsService    = "service"    // the Submit wait and the queue before the job's body
)

// ival is one interval of a job's lane, in Unix nanoseconds.
type ival struct {
	start, end int64
	class      string
}

// selfTimes nests ivs inside root by containment and adds each
// interval's self time (its length minus what its children cover) to
// acc under its class. Intervals are clipped to their parent, so small
// clock skews between an interval derived from CheckStats and the spans
// inside it cannot make coverage exceed the wall time.
func selfTimes(root ival, ivs []ival, acc map[string]int64) {
	type node struct {
		ival
		covered int64
	}
	cand := make([]ival, 0, len(ivs))
	for _, iv := range ivs {
		iv.start, iv.end = max(iv.start, root.start), min(iv.end, root.end)
		if iv.end > iv.start {
			cand = append(cand, iv)
		}
	}
	// Parents before children: earlier start first, then the longer one.
	sort.SliceStable(cand, func(i, j int) bool {
		if cand[i].start != cand[j].start {
			return cand[i].start < cand[j].start
		}
		return cand[i].end > cand[j].end
	})
	nodes := []node{{ival: root}}
	stack := []int{0}
	for _, iv := range cand {
		for len(stack) > 1 && nodes[stack[len(stack)-1]].end <= iv.start {
			stack = stack[:len(stack)-1]
		}
		top := stack[len(stack)-1]
		iv.end = min(iv.end, nodes[top].end)
		nodes[top].covered += iv.end - iv.start
		nodes = append(nodes, node{ival: iv})
		stack = append(stack, len(nodes)-1)
	}
	for _, n := range nodes {
		acc[n.class] += n.end - n.start - n.covered
	}
}

// benchSpan is an interval the benchmark records around one call into
// the library.
type benchSpan struct {
	name       string
	start, end int64
	async      bool // the call launches work that outlives it (VerifyAsync)
}

// laneIntervals turns one PE's spans of one job into budget intervals:
// the program's stage spans split into operation and checker parts by
// the stage's CheckStats, and the program's collective, receive-wait
// and resolve spans on the job's own tag block. The benchmark's own
// call spans make no interval, so the time inside a call that no
// program span covers stays unattributed; they only mark the calls
// whose work outlives them. Resolve rounds launched by such an
// asynchronous call run on a sub-communicator beside the lane, so they
// are left out here and only counted in core.resolve_ms.
func laneIntervals(spans []obs.Span, tag int64, stats []repro.CheckStats, calls []benchSpan) []ival {
	byStage := make(map[string]repro.CheckStats, len(stats))
	for _, st := range stats {
		byStage[st.Stage] = st
	}
	var out []ival
	launchedAsync := func(t int64) bool {
		for _, c := range calls {
			if c.async && c.start <= t && t <= c.end {
				return true
			}
		}
		return false
	}
	for _, s := range spans {
		if s.Tag != tag {
			continue
		}
		switch s.Kind {
		case obs.KindStage:
			out = append(out, ival{s.StartNs, s.EndNs, clsCore})
			if st, ok := byStage[s.Name]; ok {
				// The operation runs first in a stage and the checker
				// last, so the parts are anchored at the span's ends.
				out = append(out,
					ival{s.StartNs, s.StartNs + st.OpNs, clsOps},
					ival{s.EndNs - st.CheckNs, s.EndNs, clsAccumulate})
			}
		case obs.KindCollective:
			out = append(out, ival{s.StartNs, s.EndNs, clsCollective})
		case obs.KindRecvWait:
			out = append(out, ival{s.StartNs, s.EndNs, clsComm})
		case obs.KindResolve:
			if !launchedAsync(s.StartNs) {
				out = append(out, ival{s.StartNs, s.EndNs, clsResolve})
			}
		}
	}
	return out
}

// layerSums accumulates per-job figures of traced jobs: the self-time
// budget plus span-derived totals.
type layerSums struct {
	lanes     int              // (job, PE) lanes budgeted
	self      map[string]int64 // self time per class, summed over lanes
	wall      int64            // root time, summed over lanes
	resolveNs int64            // every resolve span, both lanes
	collOps   int64            // collective spans
}

func newLayerSums() *layerSums { return &layerSums{self: make(map[string]int64)} }

// addLane budgets one (job, PE) lane and adds its span totals.
func (l *layerSums) addLane(root ival, ivs []ival, spans []obs.Span) {
	l.lanes++
	l.wall += root.end - root.start
	selfTimes(root, ivs, l.self)
	for _, s := range spans {
		switch s.Kind {
		case obs.KindResolve:
			l.resolveNs += s.EndNs - s.StartNs
		case obs.KindCollective:
			l.collOps++
		}
	}
}

// report sets the budget metrics as means per (job, PE) lane.
func (l *layerSums) report(rep *report) {
	perLane := func(ns int64) float64 { return ratio(float64(ns), float64(l.lanes)) / 1e6 }
	rep.set("budget.wall_ms", perLane(l.wall))
	rep.set("unattributed_ms", perLane(l.self[clsRoot]))
	rep.set("budget.core_self_ms", perLane(l.self[clsCore]))
	rep.set("budget.ops_self_ms", perLane(l.self[clsOps]))
	rep.set("core.accumulate_ms", perLane(l.self[clsAccumulate]))
	rep.set("budget.resolve_self_ms", perLane(l.self[clsResolve]))
	rep.set("collective.ms", perLane(l.self[clsCollective]))
	rep.set("collective.recv_wait_ms", perLane(l.self[clsComm]))
	rep.set("budget.service_self_ms", perLane(l.self[clsService]))
	rep.set("core.resolve_ms", perLane(l.resolveNs))
	rep.set("collective.ops", ratio(float64(l.collOps), float64(l.lanes)))
	logf("budget per job and PE (ms): wall %.3f = core %.3f + ops %.3f + accumulate %.3f + resolve %.3f + collective %.3f + recv-wait %.3f + service %.3f + unattributed %.3f",
		perLane(l.wall), perLane(l.self[clsCore]), perLane(l.self[clsOps]), perLane(l.self[clsAccumulate]),
		perLane(l.self[clsResolve]), perLane(l.self[clsCollective]), perLane(l.self[clsComm]),
		perLane(l.self[clsService]), perLane(l.self[clsRoot]))
}

// spansIn selects the spans that lie inside [start, end].
func spansIn(spans []obs.Span, start, end int64) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.StartNs >= start && s.EndNs <= end {
			out = append(out, s)
		}
	}
	return out
}

// benchSpansToObs converts the benchmark's call spans for the Chrome
// trace export, on PE rank's lane of job.
func benchSpansToObs(rank int, job, tag int64, calls []benchSpan) []obs.Span {
	out := make([]obs.Span, len(calls))
	for i, c := range calls {
		out[i] = obs.Span{Rank: int32(rank), Kind: obs.KindStage, Job: job, Tag: tag, Name: "bench:" + c.name, StartNs: c.start, EndNs: c.end}
	}
	return out
}
