package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// vals, which it sorts in place. An empty input yields 0.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return sortedPercentile(vals, q)
}

// sortedPercentile is percentile over already-sorted values.
func sortedPercentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// quartileSpread is the distance between the first and third quartile of
// vals as a share of their median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives (the "exclusive" method), so the
// comparator and the acceptance driver agree on what a spread is. Fewer
// than two values have no spread.
func quartileSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := (s[(n-1)/2] + s[n/2]) / 2
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// opSample is one timed op of the closed-loop window: which template ran,
// how long it took and when it returned (µs since the window opened).
// Packed small so the preallocated sample buffers stay a modest,
// throughput-independent part of heap_mb.
type opSample struct {
	ns    uint32
	endUS uint32
	tmpl  uint8
}

// cycleSample is one latency sample: a whole cycle of ops (a single op for
// the one-op workloads).
type cycleSample struct {
	ms    float64
	endUS uint32
}

// recorder collects one client's samples. Cycle durations feed the wall
// percentiles, per-op durations feed the per-template medians.
type recorder struct {
	ops      []opSample
	cycles   []cycleSample
	cycleLen int
	inCycle  int
	cycleNS  int64
}

func newRecorder(cycleLen, capOps int) *recorder {
	return &recorder{
		ops:      make([]opSample, 0, capOps),
		cycles:   make([]cycleSample, 0, capOps/cycleLen+1),
		cycleLen: cycleLen,
	}
}

// add records one op that took ns and returned at endUS, and closes the
// cycle when its last op lands.
func (r *recorder) add(tmpl int, ns int64, endUS uint32) {
	r.ops = append(r.ops, opSample{ns: uint32(min(ns, math.MaxUint32)), endUS: endUS, tmpl: uint8(tmpl)})
	r.cycleNS += ns
	r.inCycle++
	if r.inCycle == r.cycleLen {
		r.cycles = append(r.cycles, cycleSample{ms: float64(r.cycleNS) / 1e6, endUS: endUS})
		r.inCycle, r.cycleNS = 0, 0
	}
}

// templateMS returns every recorded duration of one template, in ms.
func templateMS(recs []*recorder, tmpl int) []float64 {
	var out []float64
	for _, r := range recs {
		for _, s := range r.ops {
			if int(s.tmpl) == tmpl {
				out = append(out, float64(s.ns)/1e6)
			}
		}
	}
	return out
}

// slice is one equal stretch of the timed window: the ops that returned in
// it, over all clients, and the latency percentiles of the samples that
// closed in it.
type slice struct {
	OpsPerS float64 `json:"ops_per_s"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	Samples int     `json:"samples"`
}

// samplesPerSlice is how many latency samples a slice should hold so that
// its nearest-rank p95 is not simply its maximum.
const samplesPerSlice = 24

// cutSlices cuts a window of length windowUS into 4 to 16 equal slices,
// as many as leave about samplesPerSlice samples in each.
func cutSlices(recs []*recorder, windowUS uint32) []slice {
	total := 0
	for _, r := range recs {
		total += len(r.cycles)
	}
	k := min(max(total/samplesPerSlice, 4), 16)
	width := windowUS/uint32(k) + 1
	ops := make([]int, k)
	lat := make([][]float64, k)
	for _, r := range recs {
		for _, o := range r.ops {
			if i := int(o.endUS / width); i < k {
				ops[i]++
			}
		}
		for _, c := range r.cycles {
			if i := int(c.endUS / width); i < k {
				lat[i] = append(lat[i], c.ms)
			}
		}
	}
	out := make([]slice, k)
	for i := range out {
		sort.Float64s(lat[i])
		out[i] = slice{
			OpsPerS: float64(ops[i]) / (float64(width) / 1e6),
			P50MS:   sortedPercentile(lat[i], 50),
			P95MS:   sortedPercentile(lat[i], 95),
			Samples: len(lat[i]),
		}
	}
	return out
}

// overSlices reports one value for the window: the median of the slices'
// values. A shared host disturbs a run in bursts shorter than the window;
// the median over slices shrugs a burst off where a rate or percentile
// taken over the whole window carries it.
func overSlices(slices []slice, value func(slice) float64) float64 {
	vals := make([]float64, 0, len(slices))
	for _, s := range slices {
		if s.Samples > 0 {
			vals = append(vals, value(s))
		}
	}
	return median(vals)
}
