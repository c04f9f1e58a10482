package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// runSteady is the steadiness command: it runs each workload n times in fresh
// processes with seeds 1..n, alternating the workload order between rounds,
// then once traced.  For every end-to-end metric it prints the median and
// quartiles over the n runs and flags a spread (q3 - q1, as a share of the
// median) above the metric's bound; for every workload it prints the
// tracing overhead, the traced run's median job latency against the
// untraced runs' median.
func runSteady(n int, seconds float64, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	names := workloadNames()
	if n < 2 {
		fmt.Fprintln(os.Stderr, "e2ebench: --steady needs at least 2 runs for quartiles")
		return 2
	}
	walls := map[string][]float64{} // workload -> process wall time per run
	runOne := func(w string, seed int, traced int) (*result, error) {
		start := time.Now()
		defer func() { walls[w] = append(walls[w], time.Since(start).Seconds()) }()
		args := []string{"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
			"--trace", fmt.Sprint(traced), "--out-dir", outDir}
		var stdout bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		var last string
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return nil, fmt.Errorf("%s seed %d: no result (%v)", w, seed, runErr)
		}
		if runErr != nil || !r.Correct {
			return &r, fmt.Errorf("%s seed %d: run failed (%v, %d of %d operations failed)", w, seed, runErr, r.Failed, r.Attempted)
		}
		return &r, nil
	}

	values := map[string]map[string][]float64{} // workload -> metric -> values
	shares := map[string][]string{}             // workload -> failed/attempted per run
	totals := map[string][2]int{}               // workload -> failed, attempted over the runs
	failed := false
	for round := 0; round < n; round++ {
		order := append([]string(nil), names...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			r, err := runOne(w, round+1, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e2ebench:", err)
				failed = true
			}
			if r == nil {
				continue
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			shares[w] = append(shares[w], fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
			totals[w] = [2]int{totals[w][0] + r.Failed, totals[w][1] + r.Attempted}
			fmt.Fprintf(os.Stderr, "e2ebench: round %d %s done\n", round+1, w)
		}
	}
	fmt.Printf("steadiness: %d runs per workload, seeds 1-%d, %gs each, fresh process per run\n", n, n, seconds)
	fmt.Printf("%-12s %-15s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range names {
		for _, d := range endToEnd {
			xs := values[w][d.name]
			if len(xs) < 2 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			flag := ""
			if spread > d.bound {
				flag = "  OVER BOUND"
			}
			fmt.Printf("%-12s %-15s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%%s\n", w, d.name, q1, med, q3, 100*spread, 100*d.bound, flag)
		}
		fmt.Printf("%-12s failed/attempted per run: %s; failed share %d/%d; process wall median %.1f s\n",
			w, strings.Join(shares[w], " "), totals[w][0], totals[w][1], median(walls[w]))
	}
	for _, w := range names {
		r, err := runOne(w, 1, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			failed = true
			continue
		}
		traced := r.Metrics["trace.job_p50_s"].Value
		untraced := median(values[w]["job_p50_s"])
		fmt.Printf("%-12s tracing overhead: traced job_p50_s %.4gs vs untraced median %.4gs (%+.1f%%)\n",
			w, traced, untraced, 100*(traced/untraced-1))
	}
	if failed {
		return 1
	}
	return 0
}
