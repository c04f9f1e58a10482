package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"repro/internal/clocktree"
	"repro/pkg/cts"
)

// The output checks test properties every correct clock tree has, rather than
// comparing against a recorded output, so they hold for any seed and survive
// changes that legitimately alter the tree.

// checkError is a check's finding that an output the program delivered as a
// success is wrong; it makes the run incorrect.  Any other failure — the
// program's own error, or its transient verification rejecting a tree —
// counts its operation as failed and leaves the run correct.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func wrongf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// relTol is the relative tolerance for sums that the program may accumulate
// in a different order than the check does.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkTree checks a result that carries its tree (an in-process run):
//   - every input sink is a leaf exactly once, at its input position and cap;
//   - every edge's WireLen is at least the Manhattan distance it spans;
//   - the WireLen sum over the walked tree equals Stats.TotalWire;
//   - Timing.Skew equals max - min of the per-sink delays;
//   - the library worst slew, and the simulated one when verified, are
//     within the slew limit.  A simulated slew over it is the verification
//     rejecting the tree, not a wrong output (checkError).
func checkTree(res *cts.Result, sinks []cts.Sink) error {
	if res == nil || res.Tree == nil || res.Tree.Root == nil || res.Timing == nil {
		return wrongf("result lacks its tree or timing")
	}
	want := make(map[string]cts.Sink, len(sinks))
	for _, s := range sinks {
		want[s.Name] = s
	}
	seen := make(map[string]bool, len(sinks))
	var wire float64
	var err error
	clocktree.Walk(res.Tree.Root, func(n *clocktree.Node) {
		if err != nil {
			return
		}
		wire += n.WireLen
		if p := n.Parent; p != nil {
			span := math.Abs(n.Pos.X-p.Pos.X) + math.Abs(n.Pos.Y-p.Pos.Y)
			if n.WireLen < span-1e-6*math.Max(1, span) {
				err = wrongf("edge to %q: wire %.6g um shorter than its %.6g um span", n.Name, n.WireLen, span)
				return
			}
		}
		if n.Kind != clocktree.KindSink {
			return
		}
		s, ok := want[n.Name]
		switch {
		case !ok:
			err = wrongf("sink %q is not an input sink", n.Name)
		case seen[n.Name]:
			err = wrongf("sink %q appears twice", n.Name)
		case len(n.Children) > 0:
			err = wrongf("sink %q is not a leaf", n.Name)
		case n.Pos != s.Pos:
			err = wrongf("sink %q at %v, input at %v", n.Name, n.Pos, s.Pos)
		case n.SinkCap != s.Cap:
			err = wrongf("sink %q cap %g fF, input %g fF", n.Name, n.SinkCap, s.Cap)
		}
		seen[n.Name] = true
	})
	if err != nil {
		return err
	}
	if len(seen) != len(sinks) {
		return wrongf("tree holds %d of %d input sinks", len(seen), len(sinks))
	}
	if !near(wire, res.Stats.TotalWire) {
		return wrongf("walked wire %.9g um, Stats.TotalWire %.9g um", wire, res.Stats.TotalWire)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range res.Timing.SinkDelay {
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	if len(res.Timing.SinkDelay) != len(sinks) || !near(res.Timing.Skew, hi-lo) {
		return wrongf("skew %.9g ps, per-sink delays span %.9g ps over %d sinks", res.Timing.Skew, hi-lo, len(res.Timing.SinkDelay))
	}
	limit := res.Settings.SlewLimit
	if res.Timing.WorstSlew > limit {
		return wrongf("library worst slew %.4g ps over the %g ps limit", res.Timing.WorstSlew, limit)
	}
	if v := res.Verification; v != nil && v.WorstSlew > limit {
		return fmt.Errorf("simulated worst slew %.4g ps over the %g ps limit", v.WorstSlew, limit)
	}
	return nil
}

// summary is the part of the cts.Result JSON the service checks read.
type summary struct {
	Settings struct {
		SlewLimit float64 `json:"slewLimit"`
	} `json:"settings"`
	Stats struct {
		Sinks     int     `json:"sinks"`
		Buffers   int     `json:"buffers"`
		TotalWire float64 `json:"totalWireUm"`
	} `json:"stats"`
	Timing *struct {
		WorstSlew  float64 `json:"worstSlew"`
		Skew       float64 `json:"skew"`
		MaxLatency float64 `json:"maxLatency"`
		MinLatency float64 `json:"minLatency"`
	} `json:"timing"`
	Incremental *cts.IncrementalStats `json:"incremental"`
}

// checkSummary checks the result JSON a service returns, which carries no
// tree: the sink count, skew = max - min latency, and the worst slew
// against the limit.  The tree properties are checked on the direct runs
// that sampled service results are compared with.
func checkSummary(raw []byte, nSinks int) (*summary, error) {
	var s summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, wrongf("decoding result: %v", err)
	}
	switch {
	case s.Timing == nil:
		return nil, wrongf("result has no timing")
	case s.Stats.Sinks != nSinks:
		return nil, wrongf("result has %d sinks, request %d", s.Stats.Sinks, nSinks)
	case !near(s.Timing.Skew, s.Timing.MaxLatency-s.Timing.MinLatency):
		return nil, wrongf("skew %.9g ps, latencies span %.9g ps", s.Timing.Skew, s.Timing.MaxLatency-s.Timing.MinLatency)
	case s.Timing.WorstSlew > s.Settings.SlewLimit:
		return nil, wrongf("worst slew %.4g ps over the %g ps limit", s.Timing.WorstSlew, s.Settings.SlewLimit)
	case s.Stats.TotalWire <= 0:
		return nil, wrongf("total wire %g um", s.Stats.TotalWire)
	}
	return &s, nil
}

// sameResult reports whether two cts.Result JSON documents describe the same
// tree: equal in every field except the run's wall time and its
// incremental-reuse accounting, which depend on how the result was reached.
func sameResult(a, b []byte) error {
	var ma, mb map[string]any
	if err := json.Unmarshal(a, &ma); err != nil {
		return wrongf("decoding result: %v", err)
	}
	if err := json.Unmarshal(b, &mb); err != nil {
		return wrongf("decoding result: %v", err)
	}
	for _, m := range []map[string]any{ma, mb} {
		delete(m, "elapsedMs")
		delete(m, "incremental")
	}
	if !reflect.DeepEqual(ma, mb) {
		return wrongf("results differ:\n  %s\n  %s", a, b)
	}
	return nil
}
