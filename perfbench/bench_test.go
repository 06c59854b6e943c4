package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/dist"
)

// tinyRun runs a workload at test sizes for a fraction of a second.
func tinyRun(t *testing.T, workload string, seed uint64, trace bool) result {
	t.Helper()
	res, err := run(options{workload: workload, seed: seed, seconds: 0.3, trace: trace, tiny: true})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// TestCatalogueMatchesManifest keeps the metric catalogue and the
// workload set in step with BENCHMARK.json.
func TestCatalogueMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the catalogue:\n%v\n%v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the catalogue:\n%v\n%v", manifest.PerLayer, perLayer)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}
}

// TestTinyRunsEmitEveryMetric runs every workload at test sizes, with
// and without tracing, and checks the result line carries exactly the
// mode's metrics with their units and a clean verdict.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, 7, trace)
			cat := endToEnd
			if trace {
				cat = perLayer
			}
			if len(res.Metrics) != len(cat) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(cat))
			}
			for _, d := range cat {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if !trace && (res.Metrics["ok_rate"].Value != 1 || res.Metrics["detect_rate"].Value != 1) {
				t.Errorf("%s: ok_rate %v, detect_rate %v, want 1 and 1", name, res.Metrics["ok_rate"].Value, res.Metrics["detect_rate"].Value)
			}
		}
	}
}

// TestSeedChangesInputsNotMetrics: another seed gives other inputs but
// the same metric set, and the same seed repeats the exact counts.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	a, b := genPipeline(pipelineTiny, 1), genPipeline(pipelineTiny, 2)
	if reflect.DeepEqual(a.zipf, b.zipf) || reflect.DeepEqual(a.sortIn, b.sortIn) || reflect.DeepEqual(a.left, b.left) {
		t.Error("pipeline inputs do not depend on the seed")
	}
	if !reflect.DeepEqual(genPipeline(pipelineTiny, 1), a) {
		t.Error("pipeline inputs are not a function of the seed")
	}
	ga, gb := newStreamGen(streamTiny, 1), newStreamGen(streamTiny, 2)
	if ga.pair(0, 0) == gb.pair(0, 0) && ga.word(0, 0) == gb.word(0, 0) {
		t.Error("stream inputs do not depend on the seed")
	}
	if reflect.DeepEqual(genServiceData(serviceTiny, 1)[0].pairs, genServiceData(serviceTiny, 2)[0].pairs) {
		t.Error("service inputs do not depend on the seed")
	}

	keys := func(r result) []string {
		var out []string
		for k := range r.Metrics {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for name := range workloads {
		r1, r2 := tinyRun(t, name, 1, true), tinyRun(t, name, 2, true)
		if !reflect.DeepEqual(keys(r1), keys(r2)) {
			t.Errorf("%s: metric set depends on the seed", name)
		}
	}
	// Every count of the exact-count gate, across two runs: the
	// per-layer ones from traced runs, checker_bytes_per_pe from
	// untraced ones.
	for _, name := range []string{"pipeline", "stream"} {
		for _, trace := range []bool{true, false} {
			counts := []string{"core.resolve_rounds", "core.batch_words", "collective.ops", "comm.msgs_per_pe", "stream.chunks"}
			if !trace {
				counts = []string{"checker_bytes_per_pe"}
			}
			r1, r2 := tinyRun(t, name, 3, trace), tinyRun(t, name, 3, trace)
			for _, m := range counts {
				if r1.Metrics[m].Value != r2.Metrics[m].Value {
					t.Errorf("%s: %s = %v then %v for the same seed", name, m, r1.Metrics[m].Value, r2.Metrics[m].Value)
				}
			}
		}
	}
}

// TestWrongReferenceCounts proves the correctness checks are not
// vacuous: a wrong reference, a false claim and an unflagged corruption
// each count as failed operations.
func TestWrongReferenceCounts(t *testing.T) {
	cfg := dist.Config{Transport: dist.TransportMem, Timeout: opTimeout}
	m, _, err := bringUp(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.net.Close()

	in := genPipeline(pipelineTiny, 1)
	ref := referencePipeline(in)
	j, out, err := runPipelineJob(m, in, repro.CheckDeferred, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(false)
	checkPipelineJob(rep, 0, j, out, ref, repro.CheckDeferred)
	if rep.failed != 0 {
		t.Fatalf("correct pipeline outputs failed %d checks", rep.failed)
	}
	for _, bad := range []func(r *pipelineRef){
		func(r *pipelineRef) { r.reduceDigest++ },
		func(r *pipelineRef) { r.sortDigest++ },
		func(r *pipelineRef) { r.joinRows++ },
	} {
		wrong := ref
		bad(&wrong)
		rep := newReport(false)
		checkPipelineJob(rep, 0, j, out, wrong, repro.CheckDeferred)
		if rep.failed != 1 || rep.okRate() >= 1 {
			t.Errorf("wrong reference: failed %d, ok_rate %v", rep.failed, rep.okRate())
		}
	}

	// A wrong claimed stream output is rejected, and the rejection of a
	// claim the benchmark believes correct is a failure.
	g := newStreamGen(streamTiny, 1)
	claim := referenceSums(&g, streamTiny.n)
	claim[0][0].Value++
	sjob, err := runStreamJob(m, &g, claim, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = newReport(false)
	checkStreamJob(rep, 0, sjob)
	if rep.failed == 0 {
		t.Error("a rejected stream claim was not counted as failed")
	}

	// Service: an unflagged corruption is a false alarm and a flagged
	// clean claim is an escape; both fail.
	sz := serviceTiny
	checked := repro.DefaultOptions()
	checked.Mode = repro.CheckDeferred
	sp, _, err := bringUpPool(1, checked, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	load := &svcLoad{data: genServiceData(sz, 1), checked: checked}
	for _, tc := range []struct {
		name          string
		corruptData   bool
		groundCorrupt bool
		wantFailed    int64
	}{
		{"clean", false, false, 0},
		{"flagged corruption", true, true, 0},
		{"unflagged corruption", true, false, 1},
		{"flagged clean claim", false, true, 1},
	} {
		j := &svcJob{kind: kindSum, mode: repro.CheckDeferred, corrupt: tc.corruptData, elems: 1}
		if err := load.submit(sp.pool, j); err != nil {
			t.Fatal(err)
		}
		j.corrupt = tc.groundCorrupt
		rep := newReport(false)
		settle(rep, j)
		if rep.failed != tc.wantFailed {
			t.Errorf("%s: failed %d, want %d", tc.name, rep.failed, tc.wantFailed)
		}
	}
}

// TestSelfTimes checks the budget arithmetic: nested intervals split
// the root exactly, and a child overrunning its parent is clipped.
func TestSelfTimes(t *testing.T) {
	acc := map[string]int64{}
	selfTimes(ival{0, 100, clsRoot}, []ival{
		{10, 60, clsCore},
		{10, 30, clsOps},
		{20, 25, clsCollective},
		{50, 70, clsAccumulate}, // overruns clsCore, clipped to 60
		{80, 90, clsComm},
	}, acc)
	want := map[string]int64{clsRoot: 40, clsCore: 20, clsOps: 15, clsCollective: 5, clsAccumulate: 10, clsComm: 10}
	if !reflect.DeepEqual(acc, want) {
		t.Errorf("self times %v, want %v", acc, want)
	}
	var total int64
	for _, v := range acc {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

// TestTally checks how settled jobs fold in: only jobs completing
// inside the window count toward throughput, batches close in
// submission order, and no job is kept unless asked.
func TestTally(t *testing.T) {
	tl := newTally(2, false, false)
	tl.window(time.Unix(0, 0), 100*time.Millisecond, time.Second)
	at := func(callMs, doneMs int64) *svcJob {
		return &svcJob{call: callMs * 1e6, completionNs: doneMs * 1e6, elems: 1_000_000}
	}
	for _, j := range []*svcJob{at(0, 50), at(10, 150), at(20, 900), at(30, 1001)} {
		tl.add(j)
	}
	jps, melems := tl.throughput()
	if want := 2 / 0.9; math.Abs(jps-want) > 1e-9 || math.Abs(melems-want) > 1e-9 {
		t.Errorf("throughput = %v jobs/s, %v Melem/s, want %v", jps, melems, want)
	}
	if want := []float64{0.15, 0.981}; !reflect.DeepEqual(tl.makespans, want) {
		t.Errorf("batch makespans %v, want %v", tl.makespans, want)
	}
	if len(tl.latMs) != 4 || tl.kept != nil {
		t.Errorf("%d latencies and %d kept jobs, want 4 and none", len(tl.latMs), len(tl.kept))
	}
}
