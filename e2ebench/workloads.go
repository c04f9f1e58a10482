package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// runVerifyR4: one client, closed loop, verified Flow.Run jobs on r4-sized
// designs with the characterized library.  Job i synthesizes the i-th
// seeded variant of the canonical r4.
func runVerifyR4(rc *runCtx) error {
	return rc.inProcess(true, 0, 2.5, func(i int) bench.Benchmark { return variant(canonicalR4, rc.seed, "r4", i) })
}

// runSynth10k: one client, closed loop, unverified 10,000-sink flows at
// parallelism nproc.  Job i synthesizes the i-th seeded variant of the
// canonical 10k design.
func runSynth10k(rc *runCtx) error {
	return rc.inProcess(false, runtime.NumCPU(), 4, func(i int) bench.Benchmark { return variant(canonical10k, rc.seed, "synth", i) })
}

// inProcess runs a closed loop of Flow.Run jobs with one client.  Set-up
// characterizes the library and builds the flow; the warm-up job (design
// -1) runs once, untimed.  The run times jobsFor(nominal) jobs, nominal
// being a job's wall time in seconds on the reference host.  A job fails
// when the flow returns an error or its result fails a check: the tree
// properties, the simulated slew limit and, on the workloads without an
// in-flow verify stage, the same checks on the simulated samples of its
// tree.
func (rc *runCtx) inProcess(verify bool, parallelism int, nominal float64, designAt func(i int) bench.Benchmark) error {
	t := tech.Default()
	var lib *charlib.Library
	var flow *cts.Flow
	var obs *flowObserver
	err := rc.setup(func() (func(), error) {
		var err error
		if lib, err = rc.characterizeLib(t); err != nil {
			return nil, err
		}
		opts := []cts.Option{cts.WithLibrary(lib), cts.WithParallelism(parallelism)}
		if verify {
			opts = append(opts, cts.WithVerification(spice.Options{}))
		}
		if rc.trace != nil {
			obs = &flowObserver{rc: rc}
			opts = append(opts, cts.WithObserver(obs.observe))
		}
		flow, err = cts.New(t, opts...)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	// The first timed verified job's tree is simulated again, after the
	// timed region, when traced.
	var tracedJob string
	var tracedTree *clocktree.Tree
	job := func(i int) (latency float64) {
		b := designAt(i)
		sp := rc.trace.start("job", b.Name, 0)
		if obs != nil {
			obs.setJob(b.Name, sp)
		}
		var before runtimeSnap
		if rc.layer != nil {
			before = snapRuntime()
		}
		start := time.Now()
		res, err := flow.Run(rc.ctx, b.Sinks)
		latency = time.Since(start).Seconds()
		if rc.layer != nil && i >= 0 {
			rc.addRuntime(before)
		}
		rc.trace.end(sp)
		if err == nil {
			err = checkTree(res, b.Sinks)
		}
		var fs []fidelity
		if err == nil && verify {
			var f fidelity
			f, err = measureFidelity(res.Timing, res.Verification)
			fs = []fidelity{f}
		} else if err == nil {
			fs, err = sampleFidelity(rc, b.Name, res, lib, samplesPerTree)
		}
		if !rc.op(b.Name, err) || i < 0 {
			return latency
		}
		rc.timedJobs++
		rc.latencies = append(rc.latencies, latency)
		rc.quality = append(rc.quality, qualityOf(res))
		rc.fidelity = append(rc.fidelity, fs...)
		if verify && tracedTree == nil {
			tracedJob, tracedTree = b.Name, res.Tree
		}
		return latency
	}
	rc.setupOnce += job(-1)
	if err := rc.ctx.Err(); err != nil {
		return err
	}
	if err := rc.startTimed(); err != nil {
		return err
	}
	busy, jobs := 0.0, rc.jobsFor(nominal)
	for i := 0; i < jobs && rc.ctx.Err() == nil; i++ {
		busy += job(i)
		rc.timedRuns++
	}
	if err := rc.endTimed(); err != nil {
		return err
	}
	rc.throughput = float64(jobs) / busy
	if tracedTree != nil {
		rc.traceSimulate(tracedJob, tracedTree)
	}
	return nil
}

// samplesPerTree is how many sub-trees of each large result the workloads
// without an in-flow verify stage simulate.
const samplesPerTree = 2

func qualityOf(res *cts.Result) quality {
	return quality{skewPS: res.Timing.Skew, wireMM: res.Stats.TotalWire / 1000, buffers: float64(res.Stats.Buffers)}
}

func qualityOfSummary(s *summary) quality {
	return quality{skewPS: s.Timing.Skew, wireMM: s.Stats.TotalWire / 1000, buffers: float64(s.Stats.Buffers)}
}

// serviceSetup characterizes the library and starts the cluster, repeated
// as set-up.
func (rc *runCtx) serviceSetup() (*charlib.Library, error) {
	t := tech.Default()
	var lib *charlib.Library
	err := rc.setup(func() (func(), error) {
		var err error
		if lib, err = rc.characterizeLib(t); err != nil {
			return nil, err
		}
		c, err := startCluster(rc, t, lib)
		if err != nil {
			return nil, err
		}
		rc.cluster = c
		return c.close, nil
	})
	return lib, err
}

// directRun synthesizes sinks in process with the service's settings, for
// comparing service results against pkg/cts.
func directRun(rc *runCtx, lib *charlib.Library, sinks []cts.Sink) (*cts.Result, []byte, error) {
	flow, err := cts.New(tech.Default(), cts.WithLibrary(lib))
	if err != nil {
		return nil, nil, err
	}
	res, err := flow.Run(rc.ctx, sinks)
	if err != nil {
		return nil, nil, err
	}
	if err := checkTree(res, sinks); err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(res)
	return res, raw, err
}

// runEco10k: one client, closed loop of 0.1% ECOs (move, add, drop in turn)
// on the canonical 10,000-sink base, each resubmitted through the gateway
// with the base job as baseJob.  Set-up submits the base.
func runEco10k(rc *runCtx) error {
	lib, err := rc.serviceSetup()
	if err != nil {
		return err
	}
	c := rc.cluster
	defer c.close()
	base := canonical10k
	var baseID string
	submit := func(b bench.Benchmark) (*jobOutcome, *summary, error) {
		sp := rc.trace.start("job", b.Name, 0)
		out, err := c.submit(rc, ctsserver.JobRequest{Name: b.Name, Sinks: ctsserver.SinksFromCTS(b.Sinks), BaseJob: baseID}, sp)
		rc.trace.end(sp)
		if err != nil {
			return nil, nil, err
		}
		s, err := checkSummary(out.status.Result, len(b.Sinks))
		return out, s, err
	}
	err = rc.once(func() error {
		out, _, err := submit(base)
		if !rc.op(base.Name, err) {
			return fmt.Errorf("base job: %v", err)
		}
		baseID = out.status.ID
		warm := ecoDesign(rc.seed, -1)
		_, _, err = submit(warm)
		rc.op(warm.Name, err)
		return rc.ctx.Err()
	})
	if err != nil {
		return err
	}
	var first bench.Benchmark
	var firstResult []byte
	if err := rc.startTimed(); err != nil {
		return err
	}
	busy, jobs := 0.0, rc.jobsFor(ecoNominal)
	for i := 0; i < jobs && rc.ctx.Err() == nil; i++ {
		eco := ecoDesign(rc.seed, i)
		start := time.Now()
		out, s, err := submit(eco)
		rc.timedRuns++
		if !rc.op(eco.Name, err) {
			busy += time.Since(start).Seconds()
			continue
		}
		rc.timedJobs++
		rc.latencies = append(rc.latencies, out.latency)
		busy += out.latency
		rc.quality = append(rc.quality, qualityOfSummary(s))
		if inc := s.Incremental; inc != nil {
			rc.layer.add("cts.reused_merges", float64(inc.ReusedSubtrees))
			rc.layer.add("cts.recomputed_merges", float64(inc.RecomputedMerges))
		}
		if i == 0 {
			first, firstResult = eco, out.status.Result
		}
	}
	if err := rc.endTimed(); err != nil {
		return err
	}
	rc.throughput = float64(jobs) / busy
	if firstResult == nil {
		return nil
	}
	// Contract: an ECO result equals a from-scratch pkg/cts run of the same
	// sinks; that run's tree also gives the fidelity samples.
	res, raw, err := directRun(rc, lib, first.Sinks)
	if err == nil {
		err = sameResult(firstResult, raw)
	}
	var fs []fidelity
	if err == nil {
		fs, err = sampleFidelity(rc, first.Name, res, lib, ecoSamples)
	}
	if rc.op(first.Name+" vs from-scratch", err) {
		rc.fidelity = append(rc.fidelity, fs...)
	}
	return rc.ctx.Err()
}

// ecoNominal is an ECO's latency in seconds on the reference host.
const ecoNominal = 1.2

// ecoSamples is how many sub-trees of the checked ECO result eco_10k
// simulates.
const ecoSamples = 12

// Service mix load.
const (
	// mixRate is the open-loop arrival rate in jobs/s, below the cluster's
	// saturation so no submission is refused.
	mixRate = 12.0
	// mixOpenShare is the share of the run given to the open loop; at
	// mixRate it yields about 150 latency samples in an 18 s run, so the
	// 90th percentile has more than ten beyond it.
	mixOpenShare = 0.7
	// mixClosedNominal is the closed loop's throughput in jobs/s on the
	// reference host; the closed loop sends jobsFor(1/mixClosedNominal)
	// requests over the rest of the run.
	mixClosedNominal = 35.0
	// mixSamples is how many distinct results per run are compared with
	// direct pkg/cts runs and simulated: two passes over the size ladder.
	mixSamples = 2 * len(mixSizes)
)

// mixRecord is one service_mix submission.
type mixRecord struct {
	index       int
	due, sent   time.Time
	done        time.Time
	out         *jobOutcome
	err         error
	closedPhase bool
}

// runServiceMix: small jobs through the gateway, first as an open loop at
// mixRate (each job timed from when it was due) for mixOpenShare of the run,
// then as a closed loop with nproc clients for the rest.
func runServiceMix(rc *runCtx) error {
	lib, err := rc.serviceSetup()
	if err != nil {
		return err
	}
	c := rc.cluster
	defer c.close()
	stream := &mixStream{seed: rc.seed}
	var mu sync.Mutex
	var recs []*mixRecord
	send := func(r *mixRecord, req ctsserver.JobRequest) {
		sp := rc.trace.start("job", req.Name, 0)
		r.sent = time.Now()
		r.out, r.err = c.submit(rc, req, sp)
		r.done = time.Now()
		rc.trace.end(sp)
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}
	err = rc.once(func() error {
		warm := (&mixStream{seed: ^rc.seed}).at(0).req
		warm.Name = "mix_warmup"
		_, err := c.submit(rc, warm, 0)
		rc.op(warm.Name, err)
		return rc.ctx.Err()
	})
	if err != nil {
		return err
	}
	if err := rc.startTimed(); err != nil {
		return err
	}

	// Open loop: request i is due at t0 + i/mixRate.
	phase := time.Duration(rc.seconds * mixOpenShare * float64(time.Second))
	var wg sync.WaitGroup
	t0 := time.Now()
	next := 0
	for ; rc.ctx.Err() == nil; next++ {
		due := t0.Add(time.Duration(float64(next) / mixRate * float64(time.Second)))
		if due.Sub(t0) >= phase {
			break
		}
		req := stream.at(next).req // generated ahead of the due time
		time.Sleep(time.Until(due))
		r := &mixRecord{index: next, due: due}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(r, req)
		}()
	}
	wg.Wait()

	// Closed loop: nproc clients, each sending its next request when the
	// previous one is done, until the phase's requests are all sent.
	var nextMu sync.Mutex
	t1 := time.Now()
	closed := max(1, int(math.Ceil(rc.seconds*(1-mixOpenShare)*mixClosedNominal)))
	last := next + closed
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rc.ctx.Err() == nil {
				nextMu.Lock()
				i := next
				if i >= last {
					nextMu.Unlock()
					return
				}
				next++
				req := stream.at(i).req
				nextMu.Unlock()
				send(&mixRecord{index: i, closedPhase: true}, req)
			}
		}()
	}
	wg.Wait()
	closedWall := time.Since(t1).Seconds()
	if err := rc.endTimed(); err != nil {
		return err
	}
	rc.throughput = float64(closed) / closedWall

	return rc.checkMix(stream, recs, lib)
}

// checkMix checks every service_mix result and records the timed figures.
func (rc *runCtx) checkMix(stream *mixStream, recs []*mixRecord, lib *charlib.Library) error {
	rc.timedRuns = len(recs)
	byIndex := map[int]*mixRecord{}
	for _, r := range recs {
		byIndex[r.index] = r
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].index < recs[b].index })
	var lateness []float64
	repeatsChecked := 0
	var sampled []*mixRecord
	for _, r := range recs {
		i := r.index
		mr := stream.at(i)
		name := fmt.Sprintf("%s#%d", mr.req.Name, i)
		var s *summary
		err := r.err
		if err == nil {
			s, err = checkSummary(r.out.status.Result, len(mr.req.Sinks))
		}
		// Contract: a repeat of a finished request is a cache hit with the
		// same result.
		if orig, ok := byIndex[mr.repeatOf]; ok && err == nil && orig.err == nil && orig.done.Before(r.sent) {
			repeatsChecked++
			if !r.out.status.CacheHit {
				err = wrongf("repeat of #%d not served from the cache", mr.repeatOf)
			} else {
				err = sameResult(orig.out.status.Result, r.out.status.Result)
			}
		}
		if !rc.op(name, err) {
			continue
		}
		rc.timedJobs++
		rc.quality = append(rc.quality, qualityOfSummary(s))
		if !r.closedPhase {
			rc.latencies = append(rc.latencies, r.done.Sub(r.due).Seconds())
			lateness = append(lateness, r.sent.Sub(r.due).Seconds())
		}
		if mr.repeatOf < 0 && len(sampled) < mixSamples {
			sampled = append(sampled, r)
		}
	}
	var err error
	if repeatsChecked == 0 {
		err = wrongf("no repeat of a finished request to check")
	}
	rc.op("service_mix repeats", err)
	// Contract: sampled gateway results equal direct pkg/cts runs; the
	// direct runs' trees are simulated for the fidelity figures.
	for _, r := range sampled {
		mr := stream.at(r.index)
		res, raw, err := directRun(rc, lib, ctsserver.SinksToCTS(mr.req.Sinks))
		if err == nil {
			err = sameResult(r.out.status.Result, raw)
		}
		var fs []fidelity
		if err == nil {
			fs, err = sampleFidelity(rc, mr.req.Name, res, lib, 1)
		}
		if rc.op(mr.req.Name+" vs direct", err) {
			rc.fidelity = append(rc.fidelity, fs...)
		}
	}
	if len(lateness) > 0 {
		rc.diag = append(rc.diag, fmt.Sprintf("open loop: %.0f jobs/s offered, %d sent, generator lateness p50 %.2f ms, max %.2f ms",
			mixRate, len(lateness), median(lateness)*1000, percentile(lateness, 100)*1000))
	}
	rc.diag = append(rc.diag, fmt.Sprintf("checks: %d repeats served from cache, %d results compared with direct runs", repeatsChecked, len(sampled)))
	return rc.ctx.Err()
}
