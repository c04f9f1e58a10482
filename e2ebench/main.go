// Command e2ebench is the repository's end-to-end benchmark: it runs one
// workload of the clock-tree synthesis flow or service in this process for a
// fixed time, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.  It drives the program only through its public entry
// points — cts.New, Flow.Run and the Observer, charlib.Characterize,
// clocktree.BuildNetlist, spice.Simulate, ctsserver.New and
// ctsserver.NewGateway over loopback HTTP — so every layer is timed from
// outside.
//
//	bash e2ebench/run.sh --workload verify_r4 --seed 1 --seconds 18 --trace 0
//	bash e2ebench/run.sh --steady 5          # steadiness: fresh processes, quartiles
//
// See e2ebench/README.md for the workloads, metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/charlib"
	"repro/internal/mergeroute"
	"repro/internal/tech"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 18, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics and write the spans")
	outDir := fs.String("out-dir", ".bench_build", "directory for span files")
	steady := fs.Int("steady", 0, "steadiness mode: run every workload this many times in fresh processes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		return runSteady(*steady, *seconds, *outDir)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rc := &runCtx{ctx: ctx, workload: wl.name, seed: *seed, seconds: *seconds, began: time.Now()}
	if *traced == 1 {
		rc.trace, rc.layer = newTracer(), newLayers()
	}
	if err := wl.run(rc); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", wl.name, err)
		return 1
	}
	if rc.trace != nil {
		path, err := rc.trace.write(*outDir, wl.name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		rc.diag = append(rc.diag, fmt.Sprintf("spans written to %s", path))
	}
	out, err := rc.report()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, d := range rc.diag {
		fmt.Println("# " + d)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runCtx is one run of one workload: its inputs, its timed records and, in a
// traced run, its spans and layer totals.
type runCtx struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  float64
	began    time.Time
	trace    *tracer // nil in untraced runs
	layer    *layers // nil in untraced runs

	setupRepeats []float64 // the repeated set-up steps, per repetition
	setupOnce    float64   // the set-up steps done once: base job, warm-up
	characterize []float64 // charlib.Characterize wall time, per call

	latencies  []float64 // the timed jobs' client-side latencies
	quality    []quality // every timed job's tree quality
	fidelity   []fidelity
	throughput float64 // jobs/s of the closed loop
	timedJobs  int     // timed jobs that succeeded
	timedRuns  int     // timed jobs run, failed ones included: the per-job layer denominator

	attempted, failed int
	wrong             int      // failed operations whose output a check found wrong
	failures          []string // the first few failures, for the diagnostics
	diag              []string

	// Traced-run figures of the timed region: the runtime's work done by
	// the timed jobs (each in-process Flow.Run, or the whole region for the
	// service workloads), when the region began on the tracer's clock, and
	// the cluster's counters at its start and end.
	runtime runtimeSnap
	timedMs float64
	cluster *cluster
	cBefore clusterCounters
	cAfter  clusterCounters
}

// quality is one result's tree quality as the user sees it.
type quality struct {
	skewPS, wireMM, buffers float64
}

// runtimeSnap reads the Go runtime and the merge-routing arena.
type runtimeSnap struct {
	alloc, gc, arenaAllocs float64
	cpu                    time.Duration
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	_, allocs := mergeroute.ArenaStats()
	return runtimeSnap{alloc: float64(ms.TotalAlloc), gc: float64(ms.NumGC), arenaAllocs: float64(allocs), cpu: cpuTime()}
}

// since returns the runtime's work between an earlier snapshot and s.
func (s runtimeSnap) since(before runtimeSnap) runtimeSnap {
	return runtimeSnap{alloc: s.alloc - before.alloc, gc: s.gc - before.gc,
		arenaAllocs: s.arenaAllocs - before.arenaAllocs, cpu: s.cpu - before.cpu}
}

// addRuntime adds the runtime's work since before to the timed region's.
func (rc *runCtx) addRuntime(before runtimeSnap) {
	d := snapRuntime().since(before)
	r := &rc.runtime
	r.alloc, r.gc, r.arenaAllocs, r.cpu = r.alloc+d.alloc, r.gc+d.gc, r.arenaAllocs+d.arenaAllocs, r.cpu+d.cpu
}

// setupRepetitions is how often the repeatable set-up steps run; setup_s
// reports their median plus the steps done once.
const setupRepetitions = 3

// setup times the repeatable set-up steps setupRepetitions times.  Each
// repetition returns a release function, which runs before the next
// repetition, outside the timed region; the last one's resources stay.
func (rc *runCtx) setup(step func() (release func(), err error)) error {
	var release func()
	for range setupRepetitions {
		if release != nil {
			release()
		}
		start := time.Now()
		var err error
		if release, err = step(); err != nil {
			return err
		}
		rc.setupRepeats = append(rc.setupRepeats, time.Since(start).Seconds())
	}
	return nil
}

// characterizeLib builds the characterized delay/slew library.
func (rc *runCtx) characterizeLib(t *tech.Technology) (*charlib.Library, error) {
	sp := rc.trace.start("charlib.Characterize", "", 0)
	start := time.Now()
	lib, err := charlib.Characterize(t, charlib.Config{})
	rc.characterize = append(rc.characterize, time.Since(start).Seconds())
	rc.trace.end(sp)
	if err != nil {
		return nil, fmt.Errorf("characterizing the library: %w", err)
	}
	return lib, nil
}

// jobsFor is how many timed jobs a run makes on a workload whose job takes
// about nominal seconds on the reference host (README.md), so that a run
// measures for about rc.seconds.  Counting jobs rather than watching the
// clock makes a run's operations, and so its failed share, a function of
// its seed and length alone.
func (rc *runCtx) jobsFor(nominal float64) int {
	return max(1, int(math.Ceil(rc.seconds/nominal)))
}

// once times a set-up step done once (base job, warm-up job).
func (rc *runCtx) once(step func() error) error {
	start := time.Now()
	err := step()
	rc.setupOnce += time.Since(start).Seconds()
	return err
}

// maxFailuresShown bounds the failures the diagnostics list.
const maxFailuresShown = 10

// op counts one attempted operation and, when err is non-nil, its failure;
// a checkError also makes the run incorrect.  It reports whether the
// operation succeeded.
func (rc *runCtx) op(name string, err error) bool {
	rc.attempted++
	if err == nil {
		return true
	}
	rc.failed++
	if _, ok := err.(*checkError); ok {
		rc.wrong++
	}
	if len(rc.failures) < maxFailuresShown {
		rc.failures = append(rc.failures, name+": "+err.Error())
	}
	return false
}

// startTimed marks the start of the timed region.  The service workloads'
// runtime figures cover the whole region (endTimed); the in-process ones add
// each timed Flow.Run's own.
func (rc *runCtx) startTimed() error {
	if rc.layer != nil {
		rc.layer.reset() // only the timed jobs' layer totals count
		rc.timedMs = rc.trace.ms(time.Now())
		if rc.cluster != nil {
			rc.runtime = snapRuntime() // the start, until endTimed takes the difference
			var err error
			if rc.cBefore, err = rc.cluster.counters(rc.ctx); err != nil {
				return fmt.Errorf("reading cluster stats: %w", err)
			}
		}
	}
	return nil
}

// endTimed marks the end of the timed region.
func (rc *runCtx) endTimed() error {
	if rc.layer != nil && rc.cluster != nil {
		rc.runtime = snapRuntime().since(rc.runtime)
		var err error
		if rc.cAfter, err = rc.cluster.counters(rc.ctx); err != nil {
			return fmt.Errorf("reading cluster stats: %w", err)
		}
	}
	return rc.ctx.Err()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report assembles the run's result and its diagnostics.
func (rc *runCtx) report() (*result, error) {
	if rc.timedJobs == 0 || len(rc.latencies) == 0 {
		return nil, errors.New("no job completed in the timed region")
	}
	head := []string{
		fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("run: workload=%s seed=%d seconds=%g trace=%v, process wall %.1f s", rc.workload, rc.seed, rc.seconds, rc.trace != nil, time.Since(rc.began).Seconds()),
		fmt.Sprintf("operations: attempted=%d failed=%d, of them with a wrong output %d", rc.attempted, rc.failed, rc.wrong),
		fmt.Sprintf("timed jobs: %d run, %d succeeded, latency samples %d (min %.4fs, p50 %.4fs, p90 %.4fs, max %.4fs)",
			rc.timedRuns, rc.timedJobs, len(rc.latencies), percentile(rc.latencies, 0), median(rc.latencies), percentile(rc.latencies, 90), percentile(rc.latencies, 100)),
		fmt.Sprintf("setup: repeated steps %s s (median of %d), once %.4f s", fmtList(rc.setupRepeats), len(rc.setupRepeats), rc.setupOnce),
	}
	rc.diag = append(head, rc.diag...)
	for _, f := range rc.failures {
		rc.diag = append(rc.diag, "FAILED "+f)
	}
	out := &result{
		Correct:   rc.wrong == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   map[string]metric{},
	}
	var values map[string]float64
	defs := endToEnd
	if rc.trace != nil {
		values, defs = rc.layerValues(), perLayer
	} else {
		values = rc.endToEndValues()
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// endToEndValues computes the untraced run's metrics.
func (rc *runCtx) endToEndValues() map[string]float64 {
	pick := func(f func(q quality) float64) float64 {
		xs := make([]float64, len(rc.quality))
		for i, q := range rc.quality {
			xs[i] = f(q)
		}
		return median(xs)
	}
	fid := func(f func(x fidelity) float64) float64 {
		xs := make([]float64, len(rc.fidelity))
		for i, x := range rc.fidelity {
			xs[i] = f(x)
		}
		return median(xs)
	}
	return map[string]float64{
		"setup_s":        median(rc.setupRepeats) + rc.setupOnce,
		"job_p50_s":      median(rc.latencies),
		"job_p90_s":      percentile(rc.latencies, 90),
		"jobs_per_s":     rc.throughput,
		"peak_rss_mb":    peakRSSMB(),
		"skew_ps":        pick(func(q quality) float64 { return q.skewPS }),
		"wire_mm":        pick(func(q quality) float64 { return q.wireMM }),
		"buffers":        pick(func(q quality) float64 { return q.buffers }),
		"sim_skew_ps":    fid(func(x fidelity) float64 { return x.simSkew }),
		"sim_slew_ps":    fid(func(x fidelity) float64 { return x.simSlew }),
		"model_error_ps": fid(func(x fidelity) float64 { return x.modelError }),
	}
}

// layerValues computes the traced run's per-layer metrics: per job run in
// the timed region unless the metric says otherwise.
func (rc *runCtx) layerValues() map[string]float64 {
	jobs := float64(rc.timedRuns)
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	l := rc.layer
	out := map[string]float64{}
	for _, name := range []string{
		"topology.pair_s", "topology.levels", "mergeroute.route_s", "mergeroute.level1_s", "mergeroute.merges",
		"cts.reused_merges", "cts.recomputed_merges", "clocktree.buffering_s", "clocktree.timing_s",
		"ctsserver.submit_s", "ctsserver.queue_wait_s", "ctsserver.run_s", "ctsserver.overhead_s", "ctsserver.result_bytes",
		"peer.requests", "peer.misses", "peer.request_s",
	} {
		out[name] = per(l.get(name), jobs)
	}
	sims := l.get("spice.simulations")
	for _, name := range []string{"clocktree.netlist_s", "spice.simulate_s", "spice.stages", "spice.netlist_elements"} {
		out[name] = per(l.get(name), sims)
	}
	out["spice.verify_s"] = per(l.get("spice.verify_s"), l.get("spice.verifications"))
	out["charlib.characterize_s"] = median(rc.characterize)
	out["mergeroute.cpu_per_wall"] = per(l.get("mergeroute.cpu_s"), l.get("mergeroute.route_s"))
	out["cts.reuse_ratio"] = per(l.get("cts.reused_merges"), l.get("cts.reused_merges")+l.get("cts.recomputed_merges"))
	rt := rc.runtime
	out["mergeroute.scratch_allocs"] = per(rt.arenaAllocs, jobs)
	out["go.alloc_bytes_per_job"] = per(rt.alloc, jobs)
	out["go.gc_cycles_per_job"] = per(rt.gc, jobs)
	out["go.cpu_s_per_job"] = per(rt.cpu.Seconds(), jobs)
	b, a := rc.cBefore, rc.cAfter
	out["ctsserver.result_cache_hits"] = per(a.resultHits-b.resultHits, jobs)
	out["ctsserver.result_cache_misses"] = per(a.resultMisses-b.resultMisses, jobs)
	out["subtreecache.hits"] = per(a.subtreeHits-b.subtreeHits, jobs)
	out["subtreecache.misses"] = per(a.subtreeMisses-b.subtreeMisses, jobs)
	out["subtreecache.evictions"] = per(a.subtreeEvicted-b.subtreeEvicted, jobs)
	out["gateway.rerouted"] = per(a.rerouted-b.rerouted, jobs)
	spans := rc.trace.snapshot()
	hop, n := gatewayHops(spans, rc.timedMs)
	out["gateway.hop_s"] = per(hop, float64(n))
	out["trace.job_p50_s"] = median(rc.latencies)
	out["trace.spans"] = float64(len(spans))
	return out
}
