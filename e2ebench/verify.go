package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/charlib"
	"repro/internal/clocktree"
	"repro/internal/spice"
	"repro/pkg/cts"
)

// fidelity is the simulated quality of one tree: the transient simulator's
// skew and worst slew, and the model error — the largest |library-timer
// delay - simulated delay| over the sinks, computed here from the two
// per-sink delay maps.
type fidelity struct {
	simSkew, simSlew, modelError float64
}

// measureFidelity compares a tree's library timing with its transient
// simulation.
func measureFidelity(timing *clocktree.Timing, ver *clocktree.VerifyResult) (fidelity, error) {
	f := fidelity{simSkew: ver.Skew, simSlew: ver.WorstSlew}
	for n, sim := range ver.SinkDelay {
		lib, ok := timing.SinkDelay[n]
		if !ok {
			return f, wrongf("sink %q simulated but not timed", n.Name)
		}
		f.modelError = math.Max(f.modelError, math.Abs(lib-sim))
	}
	if len(ver.SinkDelay) != len(timing.SinkDelay) {
		return f, wrongf("%d sinks simulated, %d timed", len(ver.SinkDelay), len(timing.SinkDelay))
	}
	return f, nil
}

// sampleMaxSinks bounds the tree the workloads without an in-flow verify
// stage simulate per checked result.  The simulator's cost grows with
// stages x netlist, so a 10k tree takes about a minute; a sub-tree of a
// few hundred sinks takes a fraction of a second.
const sampleMaxSinks = 512

// sampleTrees returns the trees the fidelity sample simulates: the whole
// tree when it is small enough, otherwise copies of up to k disjoint
// buffered sub-trees with the most sinks within sampleMaxSinks (earlier in
// pre-order on ties), each driven directly by a clock source at its root.
func sampleTrees(t *clocktree.Tree, k int) []*clocktree.Tree {
	counts := map[*clocktree.Node]int{}
	var count func(n *clocktree.Node) int
	count = func(n *clocktree.Node) int {
		c := 0
		if n.Kind == clocktree.KindSink {
			c = 1
		}
		for _, ch := range n.Children {
			c += count(ch)
		}
		counts[n] = c
		return c
	}
	if count(t.Root) <= sampleMaxSinks {
		return []*clocktree.Tree{t}
	}
	// Candidates are maximal: a buffered node within the bound whose
	// nearest buffered ancestor is over it, so the candidates are disjoint.
	var cands []*clocktree.Node
	var walk func(n *clocktree.Node)
	walk = func(n *clocktree.Node) {
		if n.Buffer != nil && counts[n] <= sampleMaxSinks {
			cands = append(cands, n)
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.Root)
	sort.SliceStable(cands, func(a, b int) bool { return counts[cands[a]] > counts[cands[b]] })
	var out []*clocktree.Tree
	for _, n := range cands[:min(k, len(cands))] {
		st := clocktree.New(t.Tech, n.Pos)
		st.Root.AddChild(copyNode(n), 0)
		out = append(out, st)
	}
	return out
}

// copyNode deep-copies a sub-tree (the parent link is set by AddChild).
func copyNode(n *clocktree.Node) *clocktree.Node {
	c := &clocktree.Node{Name: n.Name, Kind: n.Kind, Pos: n.Pos, SinkCap: n.SinkCap, Buffer: n.Buffer}
	for _, ch := range n.Children {
		c.AddChild(copyNode(ch), ch.WireLen)
	}
	return c
}

// sampleFidelity simulates up to k samples of a result's tree (see
// sampleTrees), checks each one's simulated worst slew against the limit and
// compares its library timing with the simulation.  A simulation that fails
// or exceeds the limit fails the sampled result's operation.
func sampleFidelity(rc *runCtx, job string, res *cts.Result, lib *charlib.Library, k int) ([]fidelity, error) {
	var out []fidelity
	for _, t := range sampleTrees(res.Tree, k) {
		timing := res.Timing
		if t != res.Tree {
			var err error
			if timing, err = clocktree.Analyze(t, lib, 0); err != nil {
				return nil, fmt.Errorf("timing the sample: %w", err)
			}
		}
		sp := rc.trace.start("clocktree.Verify", job, 0)
		start := time.Now()
		ver, err := clocktree.Verify(t, spice.Options{})
		rc.layer.add("spice.verify_s", time.Since(start).Seconds())
		rc.trace.end(sp)
		if err != nil {
			return nil, fmt.Errorf("simulating the sample: %w", err)
		}
		rc.layer.add("spice.verifications", 1)
		if ver.WorstSlew > res.Settings.SlewLimit {
			return nil, fmt.Errorf("simulated worst slew %.4g ps over the %g ps limit", ver.WorstSlew, res.Settings.SlewLimit)
		}
		rc.traceSimulate(job, t)
		f, err := measureFidelity(timing, ver)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// traceSimulate splits one verification into its two layers for the traced
// run: it builds the tree's netlist and simulates it again from outside, so
// clocktree.netlist_s, spice.simulate_s and the netlist's size are
// measured.  Untraced runs skip it.
func (rc *runCtx) traceSimulate(job string, t *clocktree.Tree) {
	if rc.trace == nil {
		return
	}
	sp := rc.trace.start("clocktree.BuildNetlist", job, 0)
	start := time.Now()
	net, _, err := clocktree.BuildNetlist(t, 100)
	rc.layer.add("clocktree.netlist_s", time.Since(start).Seconds())
	rc.trace.end(sp)
	if err != nil {
		return
	}
	rc.layer.add("spice.netlist_elements", float64(len(net.Resistors)+len(net.Caps)))
	sp = rc.trace.start("spice.Simulate", job, 0)
	start = time.Now()
	// The 1 ps step is what clocktree.Verify uses by default.
	sim, err := spice.Simulate(net, t.Tech, spice.Options{TimeStep: 1})
	rc.layer.add("spice.simulate_s", time.Since(start).Seconds())
	rc.trace.end(sp)
	if err == nil {
		rc.layer.add("spice.stages", float64(sim.Stages))
		rc.layer.add("spice.simulations", 1)
	}
}
