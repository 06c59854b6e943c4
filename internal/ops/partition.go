package ops

import (
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
)

// Partitioner assigns keys to PEs by hash, the redistribution rule of
// reductions, GroupBy and hash Join. The GroupBy/Join redistribution
// checkers (Corollaries 14, 15) verify data movement against the order
// this partitioner induces, so it is part of the public contract.
type Partitioner struct {
	seed uint64
	p    int
}

// NewPartitioner returns the hash partitioner for p PEs keyed by seed.
func NewPartitioner(seed uint64, p int) Partitioner {
	return Partitioner{seed: hashing.Mix64(seed), p: p}
}

// PE returns the processing element responsible for key.
func (pt Partitioner) PE(key uint64) int {
	return int(hashing.Mix64(key^pt.seed) % uint64(pt.p))
}

// KeyOrder returns a value that sorts keys by (responsible PE, key),
// the global order the redistribution phase of GroupBy/Join induces.
func (pt Partitioner) KeyOrder(key uint64) (pe int, h uint64) {
	return pt.PE(key), key
}

// decodePairs parses a flat pair payload.
func decodePairs(ws []uint64) []data.Pair {
	return appendPairs(make([]data.Pair, 0, len(ws)/2), ws)
}

// appendPairs appends the pairs of a flat key, value payload to out.
func appendPairs(out []data.Pair, ws []uint64) []data.Pair {
	for i := 0; i+1 < len(ws); i += 2 {
		out = append(out, data.Pair{Key: ws[i], Value: ws[i+1]})
	}
	return out
}

// exchangePairsByKey routes each pair to its partition PE with one
// all-to-all and returns the pairs received, concatenated in source
// order. Each destination's payload is sized exactly from a counting
// pass, then filled in source order, so the redistribution checkers
// see After exactly as sent.
func exchangePairsByKey(w *dist.Worker, pt Partitioner, ps []data.Pair) ([]data.Pair, error) {
	dsts := make([]int32, len(ps))
	counts := make([]int, w.Size())
	for i, pr := range ps {
		d := pt.PE(pr.Key)
		dsts[i] = int32(d)
		counts[d]++
	}
	enc := make([][]uint64, len(counts))
	for d, c := range counts {
		enc[d] = make([]uint64, 0, 2*c)
	}
	for i, pr := range ps {
		d := dsts[i]
		enc[d] = append(enc[d], pr.Key, pr.Value)
	}
	got, err := w.Coll.AllToAll(enc)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ws := range got {
		total += len(ws) / 2
	}
	out := make([]data.Pair, 0, total)
	for _, ws := range got {
		out = appendPairs(out, ws)
	}
	return out, nil
}
