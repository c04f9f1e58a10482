package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// rngFor derives an independent generator for one input of one workload:
// the benchmark seed, a stream tag and an index fully determine it.
func rngFor(seed int64, stream string, index int) *rand.Rand {
	h := uint64(1469598103934665603)
	for _, b := range []byte(stream) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= uint64(seed) * 0x9e3779b97f4a7c15
	h ^= uint64(index+1) * 0xbf58476d1ce4e5b9
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// design places n sinks on a square die the way the synthetic GSRC
// equivalents do (internal/bench): three quarters uniform over the die, one
// quarter gathered into 4-7 register-bank clusters, capacitances uniform in
// 15-30 fF.  Names are stable per design, which the incremental path needs.
func design(rng *rand.Rand, name string, n int, die float64) bench.Benchmark {
	rect := geom.NewRect(geom.Pt(0, 0), geom.Pt(die, die))
	clusters := 4 + rng.Intn(4)
	centers := make([]geom.Point, clusters)
	for i := range centers {
		centers[i] = geom.Pt(rng.Float64()*die, rng.Float64()*die)
	}
	span := die / 18
	sinks := make([]cts.Sink, n)
	for i := range sinks {
		var p geom.Point
		if i%4 == 3 {
			c := centers[rng.Intn(clusters)]
			p = rect.Clamp(geom.Pt(c.X+rng.NormFloat64()*span, c.Y+rng.NormFloat64()*span))
		} else {
			p = geom.Pt(rng.Float64()*die, rng.Float64()*die)
		}
		sinks[i] = cts.Sink{Name: fmt.Sprintf("%s_s%d", name, i), Pos: p, Cap: 15 + rng.Float64()*15}
	}
	return bench.Benchmark{Name: name, Sinks: sinks, Die: rect}
}

// The large workloads start from the repository's canonical synthetic
// designs: r4 (1,903 sinks on a 16 mm die) and the 10,000-sink design
// bench.SyntheticSized builds (the one BENCH_incremental.json records).
var (
	canonicalR4  = mustBench(bench.Synthetic("r4"))
	canonical10k = mustBench(bench.SyntheticSized(10000))
)

func mustBench(b bench.Benchmark, err error) bench.Benchmark {
	if err != nil {
		panic(err) // the canonical designs are built in; failure is a bug
	}
	return b
}

// jobMoveFrac is the share of a canonical design's sinks a verify_r4 or
// synth_10k job moves (each by up to 1% of the die edge): enough to give
// every job its own tree, while every seed measures the same regime.
const jobMoveFrac = 0.1

// variant is job i's design for a workload: the canonical design with a
// seeded tenth of its sinks moved (i = -1 is the warm-up job).
func variant(base bench.Benchmark, seed int64, stream string, i int) bench.Benchmark {
	b, err := bench.Perturb(base, "move", jobMoveFrac, rngFor(seed, stream, i).Int63n(1<<40))
	if err != nil {
		panic(err) // a move of a non-empty canonical design cannot fail
	}
	return b
}

// ecoKinds is the cycle of ECO edits; ECO i applies ecoKinds[i%3].
var ecoKinds = [...]string{"move", "add", "drop"}

// ecoFrac is the share of the base design's sinks each ECO edits (0.1%).
const ecoFrac = 0.001

// ecoDesign is the i-th ECO of an eco_10k run: a seeded 0.1% move, add or
// drop applied to the canonical 10k base (i = -1 is the warm-up ECO).
func ecoDesign(seed int64, i int) bench.Benchmark {
	b, err := bench.Perturb(canonical10k, ecoKinds[(i+3)%3], ecoFrac, rngFor(seed, "eco", i).Int63n(1<<40))
	if err != nil {
		panic(err) // 0.1% of 10,000 sinks is a valid edit of every kind
	}
	return b
}

// mixRequest describes one service_mix submission.
type mixRequest struct {
	// req is the wire request.
	req ctsserver.JobRequest
	// repeatOf is the index of the earlier request this one repeats
	// exactly, or -1 for a distinct request.
	repeatOf int
}

// Service mix make-up.  Sizes and priorities are stratified rather than
// drawn independently, so every run sees the same mix and only the
// placements differ between seeds.
var (
	// mixPriorities cycles 25% low, 50% normal, 25% high.
	mixPriorities = []ctsserver.Priority{ctsserver.PriorityLow, ctsserver.PriorityNormal, ctsserver.PriorityHigh, ctsserver.PriorityNormal}
	// mixSizes is the ladder of sink counts, log-spaced over 16-256; each
	// pass of len(mixSizes) distinct requests takes every size once, in a
	// seeded order, so every run sees the same mix of sizes.  With thirteen
	// sizes and about a fifth of repeats, the quantiles the metrics take —
	// the median tree, and the median and 90th-percentile latency — each fall
	// inside a size class, not on the edge between two.
	mixSizes = [...]int{16, 20, 25, 32, 40, 51, 64, 81, 102, 128, 161, 203, 256}
)

const (
	// mixRepeatLag is how many submissions back the newest repeatable
	// request lies, so the original has finished (about a second earlier at
	// the open-loop rate) and the repeat is a result-cache hit.
	mixRepeatLag = 16
)

// mixStream generates the service_mix request sequence.  Request i is a
// pure function of the seed and i: every fourth request (from the lag on)
// resubmits an earlier distinct request verbatim — a quarter of the load;
// the others are fresh designs whose size walks mixSizes and whose priority
// cycles mixPriorities, placed as the synthetic benchmarks are on a die that
// keeps r5's sink density.
type mixStream struct {
	seed     int64
	reqs     []mixRequest
	distinct int
}

// at returns request i, generating the sequence up to it on first use.
func (m *mixStream) at(i int) mixRequest {
	for len(m.reqs) <= i {
		j := len(m.reqs)
		rng := rngFor(m.seed, "mix", j)
		if j >= mixRepeatLag && j%4 == 3 {
			k := rng.Intn(j - mixRepeatLag + 1)
			for m.reqs[k].repeatOf >= 0 {
				k = m.reqs[k].repeatOf
			}
			m.reqs = append(m.reqs, mixRequest{req: m.reqs[k].req, repeatOf: k})
			continue
		}
		d := m.distinct
		m.distinct++
		pass := rngFor(m.seed, "mix-pass", d/len(mixSizes)).Perm(len(mixSizes))
		n := mixSizes[pass[d%len(mixSizes)]]
		b := design(rng, fmt.Sprintf("mix_%d", j), n, 20000*math.Sqrt(float64(n)/3101))
		m.reqs = append(m.reqs, mixRequest{
			req: ctsserver.JobRequest{Name: b.Name, Sinks: ctsserver.SinksFromCTS(b.Sinks),
				Priority: mixPriorities[d%len(mixPriorities)]},
			repeatOf: -1,
		})
	}
	return m.reqs[i]
}
