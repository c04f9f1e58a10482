package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/charlib"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// cluster is the service under test: a gateway over two peer-wired ctsd
// members with one worker each, all served over loopback HTTP inside the
// benchmark process.
type cluster struct {
	members []*ctsserver.Server
	gateway *ctsserver.Gateway
	servers []*http.Server
	gwURL   string
	client  *ctsserver.Client
	tr      *http.Transport
}

// clusterMembers is the member count of the service workloads.
const clusterMembers = 2

// listen starts an HTTP server for h on a loopback port and returns its URL.
func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed once close runs
	return "http://" + ln.Addr().String(), nil
}

// startCluster assembles the members and the gateway.  In a traced run every
// handler is wrapped in an httpRecorder.
func startCluster(rc *runCtx, t *tech.Technology, lib *charlib.Library) (*cluster, error) {
	c := &cluster{}
	wrap := func(layer string, h http.Handler) http.Handler {
		if rc.trace == nil {
			return h
		}
		return &httpRecorder{rc: rc, layer: layer, next: h}
	}
	urls := make([]string, clusterMembers)
	for i := range urls {
		s, err := ctsserver.New(ctsserver.Options{Tech: t, Library: lib, Workers: 1})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		c.members = append(c.members, s)
		if urls[i], err = c.listen(wrap("member", s)); err != nil {
			c.close()
			return nil, err
		}
	}
	for i, s := range c.members {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		s.SetPeers(peers)
	}
	gw, err := ctsserver.NewGateway(ctsserver.GatewayOptions{Members: urls, Tech: t, Library: lib})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	c.gateway = gw
	if c.gwURL, err = c.listen(wrap("gateway", gw)); err != nil {
		c.close()
		return nil, err
	}
	// The load generator holds at most nproc connections.
	n := runtime.NumCPU()
	c.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	c.client = &ctsserver.Client{BaseURL: c.gwURL, HTTPClient: &http.Client{Transport: c.tr}}
	return c, nil
}

// close stops the gateway, drains the members and shuts every listener,
// waiting for their goroutines.
func (c *cluster) close() {
	if c.tr != nil {
		c.tr.CloseIdleConnections()
	}
	if c.gateway != nil {
		c.gateway.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range c.members {
		_ = s.Drain(ctx) // a drain timeout cancels the stragglers, which is all close needs
	}
	for _, srv := range c.servers {
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = srv.Close()
		}
	}
}

// jobOutcome is one submission's client-side view.
type jobOutcome struct {
	status  *ctsserver.JobStatus
	submitS float64 // the POST's round trip
	latency float64 // submission to terminal status
}

// submit posts a request through the gateway and waits for its terminal
// status on the job's event stream.  Stage events feed the traced run.
func (c *cluster) submit(rc *runCtx, req ctsserver.JobRequest, parent int) (*jobOutcome, error) {
	start := time.Now()
	sp := rc.trace.start("ctsserver.Submit", req.Name, parent)
	st, err := c.client.Submit(rc.ctx, req)
	rc.trace.end(sp)
	out := &jobOutcome{submitS: time.Since(start).Seconds()}
	if err != nil {
		return nil, fmt.Errorf("submitting %s: %w", req.Name, err)
	}
	if !st.State.Terminal() {
		var onEvent func(e cts.WireEvent)
		if rc.trace != nil {
			onEvent = func(e cts.WireEvent) { rc.stageEvent(req.Name, parent, e, time.Now()) }
		}
		sp = rc.trace.start("ctsserver.Stream", req.Name, parent)
		st, err = c.client.Stream(rc.ctx, st.ID, onEvent)
		rc.trace.end(sp)
		if err != nil {
			return nil, fmt.Errorf("waiting for %s: %w", req.Name, err)
		}
	}
	out.latency = time.Since(start).Seconds()
	out.status = st
	if st.State != ctsserver.StateDone {
		return out, fmt.Errorf("job %s ended %s: %s", req.Name, st.State, st.Error)
	}
	rc.serviceLayers(out)
	return out, nil
}

// serviceLayers folds one finished job's server-side timings into the
// traced run's layer totals.
func (rc *runCtx) serviceLayers(o *jobOutcome) {
	if rc.layer == nil {
		return
	}
	st := o.status
	var queue, run float64
	if created, err := time.Parse(time.RFC3339Nano, st.Created); err == nil {
		if started, err := time.Parse(time.RFC3339Nano, st.Started); err == nil {
			queue = started.Sub(created).Seconds()
			if finished, err := time.Parse(time.RFC3339Nano, st.Finished); err == nil {
				run = finished.Sub(started).Seconds()
			}
		}
	}
	rc.layer.add("ctsserver.submit_s", o.submitS)
	rc.layer.add("ctsserver.queue_wait_s", queue)
	rc.layer.add("ctsserver.run_s", run)
	rc.layer.add("ctsserver.overhead_s", o.latency-queue-run)
	rc.layer.add("ctsserver.result_bytes", float64(len(st.Result)))
}

// clusterCounters are the service counters a traced run differences over
// its timed region.
type clusterCounters struct {
	resultHits, resultMisses                   float64
	subtreeHits, subtreeMisses, subtreeEvicted float64
	rerouted                                   float64
}

// counters reads the gateway's merged cluster statistics.
func (c *cluster) counters(ctx context.Context) (clusterCounters, error) {
	var cs ctsserver.ClusterStats
	if err := getJSON(ctx, c.client.HTTPClient, c.gwURL+"/v1/stats", &cs); err != nil {
		return clusterCounters{}, err
	}
	m := cs.Merged.Cache
	out := clusterCounters{
		resultHits:   float64(m.Hits + m.PeerHits),
		resultMisses: float64(m.Misses),
		rerouted:     float64(cs.Gateway.Rerouted),
	}
	if s := m.Subtrees; s != nil {
		out.subtreeHits = float64(s.MemoryHits + s.DiskHits + s.PeerHits)
		out.subtreeMisses = float64(s.Misses)
		out.subtreeEvicted = float64(s.Evictions)
	}
	return out, nil
}

// getJSON fetches and decodes one JSON document.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
