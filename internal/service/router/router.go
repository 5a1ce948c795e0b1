package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilience/internal/service"
	"resilience/internal/telemetry"
)

// Config sizes the router. Replicas is the only required field.
type Config struct {
	// Replicas is the initial replica base URLs (http://host:port).
	Replicas []string
	// VNodes is the virtual nodes per replica on the hash ring
	// (<=0: 64). More vnodes spread keys more evenly; fewer move less
	// data on membership change.
	VNodes int
	// MaxInflight bounds concurrently forwarded requests — the router's
	// own admission queue, mirroring the replica discipline: beyond it
	// the router answers 429 + Retry-After instead of stacking
	// connections (<=0: 256).
	MaxInflight int
	// RetryAfter is the hint sent with router-side 429s (<=0: 1 s).
	// Replica 429s carry the replica's own hint through untouched.
	RetryAfter time.Duration
	// HealthEvery is the background health-probe interval (0: 2 s;
	// negative: no background probing — failures are still detected on
	// forward errors).
	HealthEvery time.Duration
	// ForwardTimeout caps one forwarded solve round-trip (<=0: 150 s —
	// above the replicas' default 120 s job timeout).
	ForwardTimeout time.Duration
	// BatchConcurrency bounds how many items of one /batch request are
	// forwarded at once (<=0: 8). A batch occupies a single router
	// admission slot however large it is; this knob is the router's own
	// fan-out parallelism, so a chaos campaign saturates replicas at a
	// controlled rate instead of admission-slot granularity.
	BatchConcurrency int
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = 2 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 150 * time.Second
	}
	if c.BatchConcurrency <= 0 {
		c.BatchConcurrency = 8
	}
	return c
}

// member is one configured replica and its routability.
type member struct {
	url     string
	alive   bool
	lastErr string
}

// Router consistent-hash-routes solve jobs across resilienced replicas.
// It implements http.Handler with the same endpoint surface as a
// replica (/solve, /healthz, /metrics) plus /replicas for membership.
type Router struct {
	cfg    Config
	mux    *http.ServeMux
	client *http.Client
	probe  *http.Client

	// admitMu serializes admission against the drain flip, exactly like
	// the replica server's discipline.
	admitMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup
	slots    chan struct{}

	// mu guards membership; the assembled ring is swapped atomically so
	// routing reads never block on membership churn.
	mu      sync.Mutex
	members map[string]*member
	ring    atomic.Pointer[ring]

	rr atomic.Uint64 // round-robin cursor for keyless jobs

	stopHealth chan struct{}
	healthDone chan struct{}

	// The telemetry plane: counters and the forward-latency histogram
	// live in reg; the /metrics collector scrapes every replica's
	// /telemetry snapshot and bucket-merges the histograms into true
	// fleet-wide quantiles. tracer retains recent wall-clock spans;
	// flight is the process crash flight recorder.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	flight *telemetry.FlightRecorder

	routed    *telemetry.Counter
	rejected  *telemetry.Counter
	rerouted  *telemetry.Counter
	noReplica *telemetry.Counter
	hForward  *telemetry.HistogramVec // forward round-trip wall seconds

	// Campaign progress: verdict-bearing jobs forwarded for the chaos
	// fleet, how many came back as verdicts, and how many of those were
	// invariant violations. On /metrics and /telemetry like every other
	// registry entry, so `watch curl /metrics` is the campaign dashboard.
	campaignJobs     *telemetry.Counter
	campaignVerdicts *telemetry.Counter
	campaignFail     *telemetry.Counter

	perMu     sync.Mutex
	perRouted map[string]int64
}

// New builds a Router and starts its health prober (unless disabled).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	rt := &Router{
		cfg:        cfg,
		client:     &http.Client{Timeout: cfg.ForwardTimeout},
		probe:      &http.Client{Timeout: 2 * time.Second},
		slots:      make(chan struct{}, cfg.MaxInflight),
		members:    make(map[string]*member),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
		perRouted:  make(map[string]int64),
		tracer:     telemetry.NewTracer(4096),
		flight:     telemetry.DefaultFlight(),
	}
	for _, u := range cfg.Replicas {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return nil, errors.New("router: empty replica URL")
		}
		rt.members[u] = &member{url: u, alive: true}
	}
	rt.reshard()
	rt.initMetrics()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/solve", rt.handleSolve)
	rt.mux.HandleFunc("/batch", rt.handleBatch)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/replicas", rt.handleReplicas)
	rt.mux.HandleFunc("/telemetry", rt.handleTelemetry)
	rt.mux.Handle("/debug/flightrecorder", rt.flight)
	if cfg.HealthEvery > 0 {
		go rt.healthLoop()
	} else {
		close(rt.healthDone)
	}
	return rt, nil
}

// initMetrics builds the registry. Registration order is the exposition
// order, kept compatible with the hand-rolled /metrics this replaces
// (resilience_router_routed_total, ..._replica_up{replica=...}, the
// fleet cache counters); the fleet-quantile lines are new.
func (rt *Router) initMetrics() {
	r := telemetry.NewRegistry("resilience_router")
	rt.reg = r
	rt.routed = r.Counter("routed_total")
	rt.rejected = r.Counter("rejected_total")
	rt.rerouted = r.Counter("rerouted_total")
	rt.noReplica = r.Counter("no_replica_total")
	rt.campaignJobs = r.Counter("campaign_jobs_total")
	rt.campaignVerdicts = r.Counter("campaign_verdicts_total")
	rt.campaignFail = r.Counter("campaign_fail_total")
	r.GaugeFunc("max_inflight", func() float64 { return float64(rt.cfg.MaxInflight) })
	r.GaugeFunc("replicas", func() float64 { return float64(len(rt.Members())) })
	r.GaugeFunc("replicas_alive", func() float64 {
		n := 0
		for _, m := range rt.Members() {
			if m.Alive {
				n++
			}
		}
		return float64(n)
	})
	rt.hForward = r.HistogramVec("forward_seconds", "")
	r.Collector(rt.exposeFleet)
}

// exposeFleet renders the per-replica rows and the fleet view: cache
// counters summed from the legacy text scrape, plus true fleet-wide
// latency and energy quantiles from exact bucket-merges of every alive
// replica's /telemetry snapshot. Member order is URL-sorted, so the
// output is deterministic for a fixed fleet state.
func (rt *Router) exposeFleet(e *telemetry.Expo) {
	members := rt.Members()
	rt.perMu.Lock()
	routedCopy := make(map[string]int64, len(rt.perRouted))
	for k, v := range rt.perRouted {
		routedCopy[k] = v
	}
	rt.perMu.Unlock()

	var hits, misses float64
	var fleet telemetry.Snapshot
	scraped := 0
	for _, m := range members {
		up := int64(0)
		if m.Alive {
			up = 1
		}
		e.IntL("replica_up", "replica", m.URL, up)
		e.IntL("replica_routed_total", "replica", m.URL, routedCopy[m.URL])
		if !m.Alive {
			continue
		}
		if st := rt.scrapeReplica(m.URL); st.scraped {
			e.LineL("replica_queue_depth", "replica", m.URL, st.queueDepth)
			hits += st.hits
			misses += st.misses
		}
		if snap, ok := rt.scrapeTelemetry(m.URL); ok {
			telemetry.Merge(&fleet, snap)
			scraped++
		}
	}
	e.Int("cache_hits_total", int64(hits))
	e.Int("cache_misses_total", int64(misses))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	e.Line("cache_hit_ratio", ratio)

	// Fleet quantiles. Because every histogram shares one fixed bucket
	// layout, the merged quantiles are the true quantiles of the pooled
	// sample stream — not an average of per-replica quantiles.
	e.Int("fleet_replicas_scraped", int64(scraped))
	wall := fleet.Histogram("solve_wall_seconds")
	e.Int("fleet_solve_wall_seconds_count", int64(wall.Count))
	e.Line("fleet_solve_wall_seconds_p50", wall.Quantile(0.50))
	e.Line("fleet_solve_wall_seconds_p95", wall.Quantile(0.95))
	e.Line("fleet_solve_wall_seconds_p99", wall.Quantile(0.99))
	for _, h := range fleet.HistogramsNamed("solve_energy_joules") {
		e.IntL("fleet_solve_energy_joules_count", "scheme", h.Label, int64(h.Count))
		e.LineL("fleet_solve_energy_joules_p50", "scheme", h.Label, h.Quantile(0.50))
		e.LineL("fleet_solve_energy_joules_p95", "scheme", h.Label, h.Quantile(0.95))
		e.LineL("fleet_solve_energy_joules_p99", "scheme", h.Label, h.Quantile(0.99))
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Shutdown stops admission, waits for in-flight forwards, and stops the
// health prober. The replicas drain on their own schedule.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.admitMu.Lock()
	already := rt.draining
	rt.draining = true
	rt.admitMu.Unlock()
	if already {
		return errors.New("router: shutdown called twice")
	}
	select {
	case <-rt.stopHealth:
	default:
		close(rt.stopHealth)
	}
	drained := make(chan struct{})
	go func() {
		rt.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("router: drain interrupted: %w", ctx.Err())
	}
	<-rt.healthDone
	rt.client.CloseIdleConnections()
	rt.probe.CloseIdleConnections()
	return nil
}

// reshard rebuilds the ring from the currently-alive membership.
// Callers must hold mu or be inside New.
func (rt *Router) reshard() {
	alive := make([]string, 0, len(rt.members))
	for _, m := range rt.members {
		if m.alive {
			alive = append(alive, m.url)
		}
	}
	rt.ring.Store(buildRing(alive, rt.cfg.VNodes))
}

// markDown records a forward failure against url and re-shards. Reports
// whether the membership actually changed (false if already down or
// since removed).
func (rt *Router) markDown(url, reason string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.members[url]
	if !ok || !m.alive {
		return false
	}
	m.alive = false
	m.lastErr = reason
	rt.reshard()
	return true
}

// SetMembers applies adds and removals and re-shards. Added replicas
// start alive (the prober or first forward will correct that within one
// cycle if wrong).
func (rt *Router) SetMembers(add, remove []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, u := range remove {
		delete(rt.members, strings.TrimRight(u, "/"))
	}
	for _, u := range add {
		u = strings.TrimRight(u, "/")
		if u == "" {
			continue
		}
		if _, ok := rt.members[u]; !ok {
			rt.members[u] = &member{url: u, alive: true}
		}
	}
	rt.reshard()
}

// Members returns the membership snapshot, sorted by URL.
func (rt *Router) Members() []struct {
	URL   string
	Alive bool
} {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]struct {
		URL   string
		Alive bool
	}, 0, len(rt.members))
	for _, m := range rt.members {
		out = append(out, struct {
			URL   string
			Alive bool
		}{m.url, m.alive})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// healthLoop probes /healthz on every member: an OK answer revives it,
// anything else (including a replica's draining 503) takes it off the
// ring so new keys re-shard away before forwards start failing.
func (rt *Router) healthLoop() {
	defer close(rt.healthDone)
	tick := time.NewTicker(rt.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopHealth:
			return
		case <-tick.C:
		}
		rt.mu.Lock()
		urls := make([]string, 0, len(rt.members))
		for u := range rt.members {
			urls = append(urls, u)
		}
		rt.mu.Unlock()
		changed := false
		for _, u := range urls {
			alive, reason := rt.probeOne(u)
			rt.mu.Lock()
			if m, ok := rt.members[u]; ok && m.alive != alive {
				m.alive = alive
				m.lastErr = reason
				changed = true
			}
			rt.mu.Unlock()
		}
		if changed {
			rt.mu.Lock()
			rt.reshard()
			rt.mu.Unlock()
		}
	}
}

func (rt *Router) probeOne(url string) (alive bool, reason string) {
	resp, err := rt.probe.Get(url + "/healthz")
	if err != nil {
		return false, err.Error()
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("healthz status %d", resp.StatusCode)
	}
	return true, ""
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Mint or propagate the request ID: the router is usually the fleet
	// entry point, so IDs are born here (or at resilience-load) and
	// forwarded to the replica, which echoes them back.
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = telemetry.NewRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req service.JobRequest
	if code, err := service.DecodeBody(w, r, service.MaxRequestBytes, &req); err != nil {
		writeError(w, code, "bad request body: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Router-side admission, mirroring the replica queue discipline:
	// explicit 429 + Retry-After, never an implicitly stalled client.
	rt.admitMu.RLock()
	if rt.draining {
		rt.admitMu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case rt.slots <- struct{}{}:
	default:
		rt.admitMu.RUnlock()
		rt.rejected.Inc()
		rt.flight.Note("router-rejected", reqID, "router saturated")
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rt.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "router saturated")
		return
	}
	rt.inflight.Add(1)
	rt.admitMu.RUnlock()
	defer func() {
		<-rt.slots
		rt.inflight.Done()
	}()

	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rt.writeReply(w, rt.forward(req, body, reqID))
}

// reply is one routed job's final answer — status, pass-through headers,
// body — captured as a value rather than written to a ResponseWriter, so
// /solve and /batch share the routing path byte-for-byte.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// errReply synthesizes a router-side JSON error reply.
func errReply(code int, msg string) reply {
	body, _ := json.Marshal(map[string]string{"error": msg})
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	return reply{code: code, header: h, body: body}
}

func (rt *Router) writeReply(w http.ResponseWriter, rep reply) {
	for k := range rep.header {
		w.Header().Set(k, rep.header.Get(k))
	}
	w.WriteHeader(rep.code)
	w.Write(rep.body)
}

// failVerdictMarker matches a verdict-bearing job result whose verdict
// line carries status "fail". Matching bytes instead of re-decoding the
// body keeps the campaign counters off the forwarding hot path.
var failVerdictMarker = []byte(`"verdict":"v1 status=fail`)

// forward routes one job to its replica and folds the outcome into the
// campaign counters when the job carries a verdict. Callers must hold a
// router admission slot.
func (rt *Router) forward(req service.JobRequest, body []byte, reqID string) reply {
	rep := rt.routeOne(req, body, reqID)
	if req.Verdict {
		rt.campaignJobs.Inc()
		if rep.code == http.StatusOK {
			rt.campaignVerdicts.Inc()
			if bytes.Contains(rep.body, failVerdictMarker) {
				rt.campaignFail.Inc()
			}
		}
	}
	return rep
}

// routeOne routes one job to its replica, failing over (and re-sharding)
// past dead replicas. Responses — including replica 429s with their
// Retry-After hints and X-Cache markers — pass through byte-identical.
func (rt *Router) routeOne(req service.JobRequest, body []byte, reqID string) reply {
	key, cacheable, err := service.CanonicalKey(req)
	if err != nil {
		return errReply(http.StatusBadRequest, err.Error())
	}

	fwd := rt.tracer.Start("forward", reqID)
	tried := 0
	for {
		rg := rt.ring.Load()
		var target string
		if cacheable {
			target = rg.lookup(fnv64a(key))
		} else {
			target = rg.nth(rt.rr.Add(1) - 1)
		}
		if target == "" {
			fwd.End()
			rt.noReplica.Inc()
			rt.flight.Crash("no-replica", reqID, "no replica available")
			rep := errReply(http.StatusServiceUnavailable, "no replica available")
			rep.header.Set("Retry-After", strconv.Itoa(retryAfterSeconds(rt.cfg.RetryAfter)))
			return rep
		}
		resp, err := rt.post(target, body, reqID)
		if err != nil {
			// Transport failure: take the replica off the ring and retry
			// on the re-sharded ring. Bound attempts by membership size so
			// a fully-dead fleet terminates.
			tried++
			changed := rt.markDown(target, err.Error())
			if changed {
				rt.flight.Note("replica-down", reqID, target+": "+err.Error())
			}
			if !changed && tried > len(rg.members)+1 {
				fwd.End()
				rt.noReplica.Inc()
				rt.flight.Crash("all-replicas-unreachable", reqID, err.Error())
				return errReply(http.StatusBadGateway, "all replicas unreachable: "+err.Error())
			}
			rt.rerouted.Inc()
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			tried++
			if rt.markDown(target, err.Error()) {
				rt.flight.Note("replica-down", reqID, target+": "+err.Error())
			}
			if tried > len(rg.members)+1 {
				fwd.End()
				rt.flight.Crash("replica-torn", reqID, target+": "+err.Error())
				return errReply(http.StatusBadGateway, "replica response torn: "+err.Error())
			}
			rt.rerouted.Inc()
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// A draining (or just-booted) replica: re-shard away and let
			// another replica take the key. The drained replica's cache
			// hits are lost, not its correctness.
			tried++
			if rt.markDown(target, "replica draining") && tried <= len(rg.members)+1 {
				rt.flight.Note("replica-down", reqID, target+": draining")
				rt.rerouted.Inc()
				continue
			}
			// Nothing changed (already down) or attempts exhausted: pass
			// the 503 through.
		}
		rt.hForward.With("").Record(fwd.End().Seconds())
		rt.routed.Inc()
		rt.perMu.Lock()
		rt.perRouted[target]++
		rt.perMu.Unlock()
		if resp.StatusCode >= 500 {
			rt.flight.Crash("replica-5xx", reqID,
				fmt.Sprintf("%s: status %d: %s", target, resp.StatusCode, respBody))
		}
		h := http.Header{}
		for _, k := range []string{"Content-Type", "Retry-After", "X-Cache", "X-Request-Id"} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		return reply{code: resp.StatusCode, header: h, body: respBody}
	}
}

// maxBatchItems caps one /batch request. A chaos fleet shards campaigns
// into batches far below this; the cap exists so a single request can
// never hold an admission slot for an unbounded amount of work.
const maxBatchItems = 1024

// maxBatchBytes bounds one /batch body so that a full batch of items,
// each as large as /solve accepts, still fits.
const maxBatchBytes = maxBatchItems * service.MaxRequestBytes

// batchItem is one /batch element's outcome. Body carries the replica's
// (or the router's error) JSON verbatim — embedding it as a RawMessage
// keeps each item byte-identical to what a direct /solve would have
// returned, which is what the fleet's determinism contract rides on.
type batchItem struct {
	Code int             `json:"code"`
	Body json.RawMessage `json:"body"`
}

// handleBatch fans one campaign batch out across the fleet: a JSON array
// of job requests in, an aligned array of {code, body} items out. The
// whole batch occupies ONE router admission slot — the fan-out runs at
// Config.BatchConcurrency inside it — so a million-scenario campaign
// contends with interactive /solve traffic as a handful of slots, not a
// slot per scenario. Per-item failures (including replica 429s) land in
// that item's code; the batch itself only fails for malformed bodies or
// router saturation.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = telemetry.NewRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var reqs []service.JobRequest
	if code, err := service.DecodeBody(w, r, maxBatchBytes, &reqs); err != nil {
		writeError(w, code, "bad batch body: "+err.Error())
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(reqs) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-item cap", len(reqs), maxBatchItems))
		return
	}

	rt.admitMu.RLock()
	if rt.draining {
		rt.admitMu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case rt.slots <- struct{}{}:
	default:
		rt.admitMu.RUnlock()
		rt.rejected.Inc()
		rt.flight.Note("router-rejected", reqID, "router saturated (batch)")
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rt.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "router saturated")
		return
	}
	rt.inflight.Add(1)
	rt.admitMu.RUnlock()
	defer func() {
		<-rt.slots
		rt.inflight.Done()
	}()

	items := make([]batchItem, len(reqs))
	sem := make(chan struct{}, rt.cfg.BatchConcurrency)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			items[i] = rt.batchOne(reqs[i], fmt.Sprintf("%s-%d", reqID, i))
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, items)
}

// batchOne validates and routes one batch element.
func (rt *Router) batchOne(req service.JobRequest, reqID string) batchItem {
	if err := req.Validate(); err != nil {
		rep := errReply(http.StatusBadRequest, err.Error())
		return batchItem{Code: rep.code, Body: rep.body}
	}
	body, err := json.Marshal(req)
	if err != nil {
		rep := errReply(http.StatusInternalServerError, err.Error())
		return batchItem{Code: rep.code, Body: rep.body}
	}
	rep := rt.forward(req, body, reqID)
	if !json.Valid(rep.body) {
		// A replica answered with something that is not JSON (a torn body,
		// an interposed proxy page). Wrap it so the batch document itself
		// stays parseable.
		wrapped, _ := json.Marshal(map[string]string{"error": string(rep.body)})
		return batchItem{Code: rep.code, Body: wrapped}
	}
	return batchItem{Code: rep.code, Body: rep.body}
}

// post sends one forwarded solve with the request ID attached, so the
// replica's spans and flight-recorder entries share the router's ID.
func (rt *Router) post(target string, body []byte, reqID string) (*http.Response, error) {
	hr, err := http.NewRequest(http.MethodPost, target+"/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-Id", reqID)
	return rt.client.Do(hr)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.admitMu.RLock()
	draining := rt.draining
	rt.admitMu.RUnlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	members := rt.Members()
	alive := 0
	rep := make(map[string]bool, len(members))
	for _, m := range members {
		rep[m.URL] = m.Alive
		if m.Alive {
			alive++
		}
	}
	if alive == 0 && code == http.StatusOK {
		status, code = "no-replicas", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"replicas":       rep,
		"replicas_alive": alive,
		"max_inflight":   rt.cfg.MaxInflight,
	})
}

// handleReplicas is the membership API: GET lists, POST applies
// {"add": [...], "remove": [...]} and re-shards the ring.
func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var chg struct {
			Add    []string `json:"add"`
			Remove []string `json:"remove"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&chg); err != nil {
			writeError(w, http.StatusBadRequest, "bad membership body: "+err.Error())
			return
		}
		rt.SetMembers(chg.Add, chg.Remove)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST")
		return
	}
	members := rt.Members()
	out := make([]map[string]any, 0, len(members))
	for _, m := range members {
		out = append(out, map[string]any{"url": m.URL, "alive": m.Alive})
	}
	writeJSON(w, http.StatusOK, map[string]any{"replicas": out})
}

// replicaStats is what /metrics scrapes out of one replica.
type replicaStats struct {
	queueDepth float64
	hits       float64
	misses     float64
	scraped    bool
}

// scrapeReplica pulls a replica's /metrics and extracts queue depth and
// cache counters. Failures leave scraped false — the router's metrics
// must render even with a dead replica.
func (rt *Router) scrapeReplica(url string) replicaStats {
	var st replicaStats
	resp, err := rt.probe.Get(url + "/metrics")
	if err != nil {
		return st
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return st
	}
	st.queueDepth = metricValue(body, "resilienced_queue_depth")
	st.hits = metricValue(body, "resilienced_cache_hits_total")
	st.misses = metricValue(body, "resilienced_cache_misses_total")
	st.scraped = true
	return st
}

// metricValue extracts an unlabeled metric's value from Prometheus text
// (0 when absent).
func metricValue(body []byte, name string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v
		}
	}
	return 0
}

// scrapeTelemetry pulls one replica's /telemetry JSON snapshot for the
// fleet bucket-merge. Failures report ok=false — the fleet view must
// render even with a dead replica.
func (rt *Router) scrapeTelemetry(url string) (telemetry.Snapshot, bool) {
	var snap telemetry.Snapshot
	resp, err := rt.probe.Get(url + "/telemetry")
	if err != nil {
		return snap, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return snap, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, false
	}
	return snap, true
}

// handleMetrics renders the registry — router counters, the forward
// latency histogram, per-replica rows, and the fleet-merged quantiles —
// in the Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WritePrometheus(w)
}

// handleTelemetry serves the fleet-merged snapshot: the router's own
// registry folded together with every alive replica's /telemetry
// document. Because histograms share one bucket layout, a client (or a
// router-of-routers) can merge these snapshots again without losing
// exactness.
func (rt *Router) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	fleet := rt.reg.Snapshot()
	for _, m := range rt.Members() {
		if !m.Alive {
			continue
		}
		if snap, ok := rt.scrapeTelemetry(m.URL); ok {
			telemetry.Merge(&fleet, snap)
		}
	}
	writeJSON(w, http.StatusOK, fleet)
}

func retryAfterSeconds(d time.Duration) int {
	n := int(math.Ceil(d.Seconds()))
	if n < 1 {
		n = 1
	}
	return n
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}
