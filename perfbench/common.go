package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/obs"
)

// pes is the mesh width of every workload.
const pes = 2

// opTimeout is the per-operation transport deadline: a wedged run fails
// with an error well inside the benchmark's time limit instead of
// hanging on the transport's default backstop.
const opTimeout = 60 * time.Second

// hashBlock is the block size the checkers hand to Hash64Batch
// (core's accumulation block), so the hash probe measures the same
// calls the checkers make.
const hashBlock = 256

// subSeed derives an independent input seed per (domain, rank) from the
// run's --seed.
func subSeed(seed uint64, domain uint64, rank int) uint64 {
	return hashing.Mix64(hashing.Mix64(seed^domain) + uint64(rank)*0x9e3779b97f4a7c15)
}

// mesh is a brought-up network with one resident worker per PE.
type mesh struct {
	net     comm.Network
	workers []*dist.Worker
}

// setupTimes is one bring-up's cost, split by layer.
type setupTimes struct {
	meshNs, workersNs int64
}

// bringUp builds the network and its workers (including the common
// seed broadcast) and times both steps.
func bringUp(cfg dist.Config, seed uint64) (*mesh, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	net, err := cfg.NewNetwork(pes)
	if err != nil {
		return nil, st, fmt.Errorf("bring up network: %w", err)
	}
	t1 := time.Now()
	ws, err := dist.NewWorkers(net, seed)
	if err != nil {
		net.Close()
		return nil, st, fmt.Errorf("start workers: %w", err)
	}
	st.meshNs = t1.Sub(t0).Nanoseconds()
	st.workersNs = time.Since(t1).Nanoseconds()
	return &mesh{net: net, workers: ws}, st, nil
}

// setupSamples is a run's repeated set-up measurements.
type setupSamples struct {
	total, meshMs, workersMs []float64
}

func (s *setupSamples) add(meshNs, workersNs int64) {
	s.total = append(s.total, float64(meshNs+workersNs)/1e9)
	s.meshMs = append(s.meshMs, float64(meshNs)/1e6)
	s.workersMs = append(s.workersMs, float64(workersNs)/1e6)
}

// report sets setup_s and the dist.* medians.
func (s *setupSamples) report(rep *report) {
	rep.set("setup_s", median(s.total))
	rep.set("dist.mesh_ms", median(s.meshMs))
	rep.set("dist.workers_ms", median(s.workersMs))
}

// bringUpRepeated runs up n times, tearing every result but the last
// down again with down, and returns the last one with every bring-up's
// timing.
func bringUpRepeated[T any](n int, up func() (T, setupTimes, error), down func(T) error) (T, setupSamples, error) {
	var samples setupSamples
	for i := 0; ; i++ {
		x, st, err := up()
		if err != nil {
			return x, samples, err
		}
		samples.add(st.meshNs, st.workersNs)
		if i == n-1 {
			return x, samples, nil
		}
		if err := down(x); err != nil {
			return x, samples, fmt.Errorf("tear down: %w", err)
		}
	}
}

// bringUpMeshes is bringUpRepeated for a mesh of resident workers.
func bringUpMeshes(cfg dist.Config, seed uint64, n int) (*mesh, setupSamples, error) {
	return bringUpRepeated(n, func() (*mesh, setupTimes, error) { return bringUp(cfg, seed) },
		func(m *mesh) error { return m.net.Close() })
}

// spmd runs body once per PE, each on its own goroutine, and waits for
// all of them. On the first failure the network is closed so peers
// blocked in a collective fail fast instead of waiting out the
// transport deadline; the mesh must not be reused after an error.
func (m *mesh) spmd(body func(w *dist.Worker) error) error {
	errs := make([]error, len(m.workers))
	var once sync.Once
	var wg sync.WaitGroup
	for i, w := range m.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := body(w); err != nil {
				errs[i] = fmt.Errorf("PE %d: %w", i, err)
				once.Do(func() { m.net.Close() })
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// msgsSent reads each PE's sent-message counter (all communicators of
// the endpoint, asynchronous resolve rounds included).
func (m *mesh) msgsSent() []int64 {
	out := make([]int64, len(m.workers))
	for i := range out {
		out[i] = m.net.Endpoint(i).Metrics().Snapshot().MsgsSent
	}
	return out
}

// connsOpen reads the transport's open-connection count, 0 for the
// connectionless in-memory transport.
func connsOpen(net comm.Network) float64 {
	return math.Max(0, float64(comm.NetworkMeter(net).ConnsOpen))
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs; 0 for an empty slice.
// +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[min(idx, len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---------------------------------------------------------------------
// Peak heap
// ---------------------------------------------------------------------

// heapSampler tracks the peak of the Go heap in use while a measured
// phase runs, reading runtime/metrics every millisecond.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB ends sampling and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// ---------------------------------------------------------------------
// Hash probe
// ---------------------------------------------------------------------

// hashProbe times the public hash families the checkers use (CRC for
// sum aggregation, Tab for permutation and sort checking) on keys, in
// blocks of the checkers' size, and returns ns per key for each: the
// median of several passes over the keys.
func hashProbe(keys []uint64, seed uint64) (crcNs, tabNs float64) {
	probe := func(f hashing.Family) float64 {
		h := f.New(seed)
		dst := make([]uint64, hashBlock)
		var passes []float64
		for range 5 {
			t0 := time.Now()
			for i := 0; i < len(keys); i += hashBlock {
				h.Hash64Batch(dst, keys[i:min(i+hashBlock, len(keys))])
			}
			passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
		}
		return median(passes)
	}
	return probe(hashing.FamilyCRC), probe(hashing.FamilyTab)
}

// ---------------------------------------------------------------------
// Exact-count gate
// ---------------------------------------------------------------------

// countGate holds counts that must repeat exactly from job to job for
// a fixed seed; a job whose count differs from the first job that had
// it fails.
type countGate struct {
	first map[string]int64
}

// check compares a job's counts with the first ones seen and reports
// every mismatch as a failure.
func (g *countGate) check(rep *report, job int, counts map[string]int64) {
	if g.first == nil {
		g.first = make(map[string]int64)
	}
	for name, v := range counts {
		want, ok := g.first[name]
		if !ok {
			g.first[name] = v
		} else if want != v {
			rep.fail("exact-count gate: job %d %s = %d, first job had %d", job, name, v, want)
		}
	}
}

// ---------------------------------------------------------------------
// Trace output
// ---------------------------------------------------------------------

// writeTrace writes spans as a Chrome trace to dir/trace-<name>.json.
func writeTrace(dir, name string, spans []obs.Span) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	logf("wrote %s (%d spans)", path, len(spans))
	return nil
}
