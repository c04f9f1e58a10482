package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// span is one traced interval at a layer boundary.  Times are milliseconds
// since the run's anchor; Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Job    string  `json:"job,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

// tracer keeps a traced run's spans in memory until the run ends.  A nil
// *tracer records nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	anchor time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer { return &tracer{anchor: time.Now()} }

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.anchor)) / float64(time.Millisecond)
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a span measured elsewhere and returns its id.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Job: job, Name: name, Start: t.ms(start), End: t.ms(end)}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.snapshot()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// layers accumulates per-layer totals during a traced run; a nil *layers
// accumulates nothing.
type layers struct {
	mu   sync.Mutex
	sums map[string]float64 // guarded by mu
}

func newLayers() *layers { return &layers{sums: map[string]float64{}} }

func (l *layers) add(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sums[name] += v
}

func (l *layers) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sums = map[string]float64{}
}

func (l *layers) get(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sums[name]
}

// flowObserver turns a flow's stage events into spans and layer totals.
// The in-process workloads run one job at a time, so the events belong to
// the job set with setJob.
type flowObserver struct {
	rc       *runCtx
	mu       sync.Mutex
	job      string        // guarded by mu
	parent   int           // guarded by mu
	cpuStart time.Duration // guarded by mu
}

func (o *flowObserver) setJob(job string, parent int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.job, o.parent = job, parent
}

// observe is the cts.Observer installed on traced in-process flows.
func (o *flowObserver) observe(e cts.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e.Kind == cts.EventStageStart && e.Stage == cts.StageMergeRoute {
		o.cpuStart = cpuTime()
	}
	if e.Kind == cts.EventStageEnd && e.Stage == cts.StageMergeRoute {
		o.rc.layer.add("mergeroute.cpu_s", (cpuTime() - o.cpuStart).Seconds())
	}
	o.rc.stageEvent(o.job, o.parent, e.Wire(), time.Now())
}

// stageEvent folds one flow event — from an in-process observer or a
// service job's event stream — into spans and layer totals.
func (rc *runCtx) stageEvent(job string, parent int, e cts.WireEvent, at time.Time) {
	switch e.Kind {
	case "stage-end":
		d := time.Duration(e.ElapsedMs * float64(time.Millisecond))
		name := e.Stage
		if e.Level > 0 {
			name = fmt.Sprintf("%s/%d", e.Stage, e.Level)
		}
		rc.trace.add("stage "+name, job, parent, at.Add(-d), at)
		s := d.Seconds()
		switch e.Stage {
		case cts.StageTopology:
			rc.layer.add("topology.pair_s", s)
		case cts.StageMergeRoute:
			rc.layer.add("mergeroute.route_s", s)
			if e.Level == 1 {
				rc.layer.add("mergeroute.level1_s", s)
			}
		case cts.StageBuffering:
			rc.layer.add("clocktree.buffering_s", s)
		case cts.StageTiming:
			rc.layer.add("clocktree.timing_s", s)
		case cts.StageVerify:
			rc.layer.add("spice.verify_s", s)
			rc.layer.add("spice.verifications", 1)
		}
	case "level-done":
		rc.layer.add("topology.levels", 1)
		rc.layer.add("mergeroute.merges", float64(e.Pairs))
	}
}

// httpRecorder wraps a member's or the gateway's handler in a traced run:
// it records one span per request, and counts the members' /v1/peer/
// requests and their misses (404s), which the service does not export.
type httpRecorder struct {
	rc    *runCtx
	layer string // "gateway" or "member"
	next  http.Handler
}

// captureWriter keeps the status and (for job submissions) the body of a
// response on its way out.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   *bytes.Buffer
}

func (w *captureWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.body != nil {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// Flush keeps event streams flowing through the wrapper.
func (w *captureWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *httpRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
	submit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
	if submit && h.layer == "gateway" {
		cw.body = &bytes.Buffer{}
	}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	end := time.Now()
	// The gateway forwards the canonical key in a header; at the gateway
	// itself it is read back from the submission's response.
	key := r.Header.Get(ctsserver.HeaderRouteKey)
	if cw.body != nil {
		var st struct {
			Key string `json:"key"`
		}
		if json.Unmarshal(cw.body.Bytes(), &st) == nil {
			key = st.Key
		}
	}
	name := h.layer + " " + r.Method + " " + routeOf(r.URL.Path)
	h.rc.trace.add(name, key, 0, start, end)
	if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
		h.rc.layer.add("peer.requests", 1)
		h.rc.layer.add("peer.request_s", end.Sub(start).Seconds())
		if cw.status == http.StatusNotFound {
			h.rc.layer.add("peer.misses", 1)
		}
	}
}

// routeOf collapses ids and keys out of a request path, so span names group.
func routeOf(path string) string {
	parts := strings.Split(path, "/") // "", "v1", "jobs"|"peer", ...
	switch {
	case len(parts) > 3 && parts[2] == "jobs":
		parts[3] = "*"
	case len(parts) > 4 && parts[2] == "peer":
		parts[4] = "*"
	}
	return strings.Join(parts, "/")
}

// gatewayHops returns the gateway's own time per job submission: each
// gateway POST /v1/jobs span that starts at or after sinceMs, minus the
// member POST spans of the same key that it contains.
func gatewayHops(spans []span, sinceMs float64) (total float64, n int) {
	var gw, mem []span
	for _, s := range spans {
		switch {
		case s.Name == "gateway POST /v1/jobs" && s.Start >= sinceMs:
			gw = append(gw, s)
		case s.Name == "member POST /v1/jobs":
			mem = append(mem, s)
		}
	}
	for _, g := range gw {
		inner := 0.0
		for _, m := range mem {
			if m.Job == g.Job && m.Start >= g.Start && m.End <= g.End {
				inner += m.End - m.Start
			}
		}
		total += (g.End - g.Start - inner) / 1000
		n++
	}
	return total, n
}
