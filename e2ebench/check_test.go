package main

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/tech"
	"repro/pkg/cts"
)

// synthSmall runs a small verified flow the checks can be exercised on.
func synthSmall(t *testing.T) (*cts.Result, []cts.Sink) {
	t.Helper()
	b := design(rngFor(7, "test", 0), "t", 48, 3000)
	flow, err := cts.New(tech.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), b.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verification, err = res.Verify(nil); err != nil {
		t.Fatal(err)
	}
	return res, b.Sinks
}

// sinkNodes lists the result's sink nodes in pre-order.
func sinkNodes(res *cts.Result) []*clocktree.Node {
	var out []*clocktree.Node
	clocktree.Walk(res.Tree.Root, func(n *clocktree.Node) {
		if n.Kind == clocktree.KindSink {
			out = append(out, n)
		}
	})
	return out
}

func TestCheckTreeAcceptsSynthesizedTree(t *testing.T) {
	res, sinks := synthSmall(t)
	if err := checkTree(res, sinks); err != nil {
		t.Fatal(err)
	}
}

// TestCheckTreeRejectsCorruption corrupts one property at a time and expects
// the check to name it.
func TestCheckTreeRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(res *cts.Result)
		want    string
	}{
		{"moved sink", func(r *cts.Result) { sinkNodes(r)[3].Pos.X += 1 }, "input at"},
		{"changed cap", func(r *cts.Result) { sinkNodes(r)[5].SinkCap += 0.5 }, "cap"},
		{"duplicated sink", func(r *cts.Result) { s := sinkNodes(r); s[1].Name = s[0].Name }, "twice"},
		{"foreign sink", func(r *cts.Result) { sinkNodes(r)[2].Name = "nobody" }, "not an input sink"},
		{"dropped sink", func(r *cts.Result) {
			s := sinkNodes(r)[4]
			p := s.Parent
			for i, c := range p.Children {
				if c == s {
					p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
				}
			}
		}, "input sinks"},
		{"sink with a child", func(r *cts.Result) {
			s := sinkNodes(r)[6]
			s.AddChild(&clocktree.Node{Kind: clocktree.KindRouting, Pos: s.Pos}, 0)
		}, "not a leaf"},
		{"short wire", func(r *cts.Result) {
			clocktree.Walk(r.Tree.Root, func(n *clocktree.Node) {
				if p := n.Parent; p != nil && n.WireLen > 10 {
					n.WireLen = (math.Abs(n.Pos.X-p.Pos.X) + math.Abs(n.Pos.Y-p.Pos.Y)) / 2
				}
			})
		}, "shorter than"},
		{"total wire", func(r *cts.Result) { r.Stats.TotalWire *= 1.001 }, "TotalWire"},
		{"skew", func(r *cts.Result) { r.Timing.Skew += 0.01 }, "skew"},
		{"library slew", func(r *cts.Result) { r.Timing.WorstSlew = r.Settings.SlewLimit + 1 }, "library worst slew"},
		{"simulated slew", func(r *cts.Result) { r.Verification.WorstSlew = r.Settings.SlewLimit + 1 }, "simulated worst slew"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, sinks := synthSmall(t)
			c.corrupt(res)
			err := checkTree(res, sinks)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("checkTree = %v, want an error mentioning %q", err, c.want)
			}
		})
	}
}

func TestCheckSummaryRejectsCorruption(t *testing.T) {
	res, sinks := synthSmall(t)
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSummary(raw, len(sinks)); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	edit := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	timing := func(m map[string]any) map[string]any { return m["timing"].(map[string]any) }
	cases := map[string][]byte{
		"sink count":  raw,
		"skew":        edit(func(m map[string]any) { timing(m)["skew"] = timing(m)["skew"].(float64) + 1 }),
		"slew":        edit(func(m map[string]any) { timing(m)["worstSlew"] = 1e4 }),
		"no timing":   edit(func(m map[string]any) { delete(m, "timing") }),
		"zero wire":   edit(func(m map[string]any) { m["stats"].(map[string]any)["totalWireUm"] = 0 }),
		"not decoded": []byte("{"),
	}
	for name, doc := range cases {
		n := len(sinks)
		if name == "sink count" {
			n++
		}
		if _, err := checkSummary(doc, n); err == nil {
			t.Errorf("%s: corrupted summary accepted", name)
		}
	}
}

func TestSameResult(t *testing.T) {
	a := []byte(`{"elapsedMs":1,"stats":{"buffers":3},"incremental":{"reusedSubtrees":9}}`)
	b := []byte(`{"elapsedMs":7,"stats":{"buffers":3}}`)
	if err := sameResult(a, b); err != nil {
		t.Fatalf("results differing only in wall time and reuse: %v", err)
	}
	c := []byte(`{"elapsedMs":7,"stats":{"buffers":4}}`)
	if err := sameResult(a, c); err == nil {
		t.Fatal("different results compared equal")
	}
}

func TestSampleTreesAreDisjointBufferedSubtrees(t *testing.T) {
	b := design(rngFor(3, "test", 1), "big", 1400, 13000)
	flow, err := cts.New(tech.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Run(context.Background(), b.Sinks)
	if err != nil {
		t.Fatal(err)
	}
	trees := sampleTrees(res.Tree, 3)
	if len(trees) == 0 {
		t.Fatal("no sample")
	}
	seen := map[string]bool{}
	for _, st := range trees {
		top := st.Root.Children[0]
		if top.Buffer == nil {
			t.Error("sample root is not buffered")
		}
		n := 0
		for _, s := range clocktree.Sinks(st.Root) {
			if seen[s.Name] {
				t.Errorf("sink %s in two samples", s.Name)
			}
			seen[s.Name] = true
			n++
		}
		if n > sampleMaxSinks || n < 2 {
			t.Errorf("sample holds %d sinks", n)
		}
		if err := st.Validate(); err != nil {
			t.Error(err)
		}
	}
}
