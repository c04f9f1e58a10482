package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository root
// in step with the metric and workload tables the benchmark prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 4, 2], n=4) == [1.25, 2.5, 3.75]
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.xs, i, got, c.want[i])
			}
		}
	}
	// numpy.percentile([5, 1, 4, 2, 3], 90) == 4.6
	if got := percentile([]float64{5, 1, 4, 2, 3}, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
}

func TestGatewayHops(t *testing.T) {
	spans := []span{
		{Name: "gateway POST /v1/jobs", Job: "k1", Start: 0, End: 10},
		{Name: "member POST /v1/jobs", Job: "k1", Start: 2, End: 8},
		{Name: "member POST /v1/jobs", Job: "k2", Start: 3, End: 4},
		{Name: "gateway POST /v1/jobs", Job: "k2", Start: 20, End: 23},
		{Name: "member POST /v1/jobs", Job: "k2", Start: 21, End: 22},
	}
	total, n := gatewayHops(spans, 0)
	if n != 2 || math.Abs(total-0.006) > 1e-12 {
		t.Fatalf("gatewayHops = %g s over %d, want 0.006 s over 2", total, n)
	}
	// Submissions before the timed region began are not counted.
	total, n = gatewayHops(spans, 15)
	if n != 1 || math.Abs(total-0.002) > 1e-12 {
		t.Fatalf("gatewayHops since 15 ms = %g s over %d, want 0.002 s over 1", total, n)
	}
}

func TestRouteOf(t *testing.T) {
	for in, want := range map[string]string{
		"/v1/jobs":                "/v1/jobs",
		"/v1/jobs/job-1/events":   "/v1/jobs/*/events",
		"/v1/peer/subtree/abcdef": "/v1/peer/subtree/*",
		"/v1/stats":               "/v1/stats",
	} {
		if got := routeOf(in); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestOpCountsFailures: every failure counts its operation as failed, and
// only a check's finding of a wrong output makes the run incorrect.
func TestOpCountsFailures(t *testing.T) {
	rc := &runCtx{}
	rc.op("ok", nil)
	rc.op("simulator", errors.New("spice: buffer input never switches"))
	if rc.attempted != 2 || rc.failed != 1 || rc.wrong != 0 {
		t.Fatalf("attempted %d failed %d wrong %d, want 2 1 0", rc.attempted, rc.failed, rc.wrong)
	}
	rc.op("check", wrongf("skew %g ps", 1.0))
	if rc.attempted != 3 || rc.failed != 2 || rc.wrong != 1 {
		t.Fatalf("attempted %d failed %d wrong %d, want 3 2 1", rc.attempted, rc.failed, rc.wrong)
	}
}

func TestJobsFor(t *testing.T) {
	for _, c := range []struct {
		seconds, nominal float64
		want             int
	}{{18, 2.5, 8}, {18, 4, 5}, {18, 1.2, 15}, {1, 4, 1}} {
		if got := (&runCtx{seconds: c.seconds}).jobsFor(c.nominal); got != c.want {
			t.Errorf("jobsFor(%g) over %g s = %d, want %d", c.nominal, c.seconds, got, c.want)
		}
	}
}
