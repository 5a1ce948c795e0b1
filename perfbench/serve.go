package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/service"
	"resilience/internal/service/router"
)

// The serve-zipf stream. Every missEvery-th request is the first touch
// of a new chaos scenario job (a cache miss); the others re-request one
// of the hotWindow most recently introduced jobs, zipf-distributed by
// recency, so the hottest job is the one introduced hotGap jobs ago.
// Every job a hit can name was introduced fewer than hotGap+hotWindow
// jobs ago, far fewer than one replica's 4096-entry cache holds, so no
// hit ever finds its job evicted and the hit ratio is a property of the
// stream, not of the run length.
const (
	missEvery = 20 // 5% first-touch misses
	hotGap    = 2
	hotWindow = 2048
	zipfS     = 1.1
	replicas  = 2
)

// stream is a generated request sequence over unique jobs.
type stream struct {
	reqs  []service.JobRequest // unique jobs
	wire  [][]byte             // their JSON request bodies
	pos   []int32              // position -> unique job
	intro []bool               // position is its job's first touch
}

// newStream generates n positions over jobs drawn from the chaos
// generator with the given campaign seed.
func newStream(seed int64, n int) (*stream, error) {
	s := &stream{pos: make([]int32, n), intro: make([]bool, n)}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, hotWindow-1)
	for p := range s.pos {
		if p%missEvery == 0 {
			k := len(s.reqs)
			req := service.JobRequest{Scenario: chaos.ScenarioAt(chaos.Options{Seed: seed}, k).Args()}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			s.reqs = append(s.reqs, req)
			s.wire = append(s.wire, body)
			s.pos[p], s.intro[p] = int32(k), true
			continue
		}
		newest := len(s.reqs) - 1
		hi := newest - hotGap
		if hi < 0 {
			hi = newest
		}
		r := int(z.Uint64()) % (hi + 1)
		s.pos[p] = int32(hi - r)
	}
	return s, nil
}

// fleetUT is the fleet under test: service replicas behind a router, all
// in this process on loopback with default configurations.
type fleetUT struct {
	servers []*service.Server
	hs      []*http.Server
	urls    []string
	rt      *router.Router
	rurl    string
}

func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

func startFleet() (*fleetUT, error) {
	f := &fleetUT{}
	for i := 0; i < replicas; i++ {
		s := service.New(service.Config{})
		hs, url, err := serveLoopback(s)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, s)
		f.hs = append(f.hs, hs)
		f.urls = append(f.urls, url)
	}
	rt, err := router.New(router.Config{Replicas: f.urls})
	if err != nil {
		return nil, err
	}
	hs, url, err := serveLoopback(rt)
	if err != nil {
		return nil, err
	}
	f.rt, f.rurl = rt, url
	f.hs = append(f.hs, hs)
	return f, nil
}

// stop drains the router, the replicas and their listeners.
func (f *fleetUT) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f.rt.Shutdown(ctx)
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
	for _, hs := range f.hs {
		hs.Shutdown(ctx)
	}
}

// counts sums the replicas' service counters.
func (f *fleetUT) counts() service.Stats {
	var t service.Stats
	for _, s := range f.servers {
		st := s.Stats()
		t.CacheHits += st.CacheHits
		t.CacheMisses += st.CacheMisses
		t.CacheEvictions += st.CacheEvictions
		t.Coalesced += st.Coalesced
		t.Rejected += st.Rejected
		t.Ranks.MsgsSent += st.Ranks.MsgsSent
		t.Ranks.BytesSent += st.Ranks.BytesSent
		t.Ranks.Collectives += st.Ranks.Collectives
	}
	return t
}

// routedShares scrapes the router's per-replica routed counters.
func (f *fleetUT) routedShares(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(f.rurl + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "resilience_router_replica_routed_total{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, got, err
}

// passResult is one pass of the stream against a fleet.
type passResult struct {
	positions int
	elapsed   float64
	lat       []float64 // seconds per position; +Inf for a failed request
	failed    int
	first     [][]byte // first body returned for each introduced job
	exact     string   // exact counters for the purity check
}

// replay runs the stream with clients closed-loop clients against the
// router until the window is spent (maxPos = 0) or exactly maxPos
// positions are done. A hit waits until its job's first touch has been
// answered, so it can never coalesce with it: hits and misses are then a
// function of the positions replayed alone.
func replay(f *fleetUT, c *http.Client, st *stream, clients int, seconds float64, maxPos int, tr *tracer) *passResult {
	n := len(st.pos)
	if maxPos > 0 {
		n = maxPos
	}
	ready := make([]chan struct{}, len(st.reqs))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	res := &passResult{first: make([][]byte, len(st.reqs))}
	lat := make([]float64, n)
	var next atomic.Int64
	var mu sync.Mutex
	c0 := f.counts()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := 0
			for {
				if maxPos == 0 && time.Now().After(deadline) {
					break
				}
				p := int(next.Add(1) - 1)
				if p >= n {
					break
				}
				k := st.pos[p]
				root := tr.begin("op", 0, int64(p))
				if !st.intro[p] {
					id := tr.begin("wait.first_touch", root, int64(p))
					<-ready[k]
					tr.end(id)
				}
				id := tr.begin("http.router_solve", root, int64(p))
				t0 := time.Now()
				code, body, err := post(c, f.rurl, st.wire[k])
				d := time.Since(t0).Seconds()
				tr.end(id)
				ok := err == nil && code == http.StatusOK
				if st.intro[p] {
					if ok {
						res.first[k] = body
					}
					close(ready[k])
				} else {
					ok = ok && bytes.Equal(body, res.first[k])
				}
				tr.end(root)
				if !ok {
					failed++
					d = math.Inf(1)
				}
				lat[p] = d
			}
			mu.Lock()
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	// Every claimed position below n was replayed, so the replayed
	// positions are exactly [0, positions).
	res.positions = int(min(next.Load(), int64(n)))
	res.lat = lat[:res.positions]
	c1 := f.counts()
	res.exact = fmt.Sprintf("positions=%d hits=%d misses=%d coalesced=%d evictions=%d rejected=%d msgs=%d bytes=%d collectives=%d",
		res.positions, c1.CacheHits-c0.CacheHits, c1.CacheMisses-c0.CacheMisses, c1.Coalesced-c0.Coalesced,
		c1.CacheEvictions-c0.CacheEvictions, c1.Rejected-c0.Rejected, c1.Ranks.MsgsSent-c0.Ranks.MsgsSent,
		c1.Ranks.BytesSent-c0.Ranks.BytesSent, c1.Ranks.Collectives-c0.Ranks.Collectives)
	return res
}

// oracle holds the service.RunJob bodies of the stream's jobs, computed
// on demand after a pass and kept for the next.
type oracle struct {
	bodies [][]byte
	iters  []int
	runjob []float64 // seconds per RunJob call computed so far
}

// verify computes the oracle body of every job the pass introduced and
// fails every request of a job whose served body differs from it. The
// served bodies were already compared with each other during the pass.
func (o *oracle) verify(b *bench, st *stream, res *passResult, workers int) error {
	njobs := 0
	for p := 0; p < res.positions; p++ {
		if st.intro[p] {
			njobs++
		}
	}
	for len(o.bodies) < len(st.reqs) {
		o.bodies = append(o.bodies, nil)
		o.iters = append(o.iters, 0)
	}
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				t0 := time.Now()
				jr, _, err := service.RunJob(context.Background(), st.reqs[k])
				d := time.Since(t0).Seconds()
				var body []byte
				if err == nil {
					body, err = json.Marshal(jr)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					o.bodies[k], o.iters[k] = body, jr.Iters
					o.runjob = append(o.runjob, d)
				}
				mu.Unlock()
			}
		}()
	}
	for k := 0; k < njobs; k++ {
		if o.bodies[k] == nil {
			jobs <- k
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("oracle: %w", firstErr)
	}
	bad := make([]bool, njobs)
	for k := 0; k < njobs; k++ {
		if res.first[k] != nil && !bytes.Equal(res.first[k], o.bodies[k]) {
			bad[k] = true
			b.note("FAILED: job %d served %s, oracle %s", k, res.first[k], o.bodies[k])
		}
	}
	for p := 0; p < res.positions; p++ {
		if bad[st.pos[p]] && !math.IsInf(res.lat[p], 1) {
			res.failed++
			res.lat[p] = math.Inf(1)
		}
	}
	b.ops(res.positions, res.failed)
	return nil
}

func runServe(b *bench) error {
	clients := runtime.NumCPU()
	// The stream outlasts the window at up to 16k requests per second.
	streamLen, warmLen := int(math.Max(40_000, 16_000*b.seconds)), 4_000
	if b.smoke {
		warmLen = 200
	}
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConns: 4 * clients, MaxIdleConnsPerHost: 2 * clients}}
	defer httpc.CloseIdleConnections()

	var f *fleetUT
	var st, warm *stream
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if f != nil {
			f.stop()
		}
		settle()
		t0 := time.Now()
		var err error
		if f, err = startFleet(); err != nil {
			return err
		}
		if st, err = newStream(b.seed, streamLen); err != nil {
			return err
		}
		if warm, err = newStream(b.seed^0x77a4_5eed, warmLen); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { f.stop() }()
	b.setupTimes(setups, fmt.Sprintf("%d replicas and a router on loopback, plus a %d-request stream over %d jobs", replicas, streamLen, len(st.reqs)))

	// Warm-up on jobs disjoint from the timed stream: timing starts with a
	// warm process and cold keys.
	// Its replies are held to each other like the timed stream's.
	warmUp := func() {
		w := replay(f, httpc, warm, clients, 0, warmLen, nil)
		if w.failed > 0 {
			b.note("FAILED: %d of %d warm-up requests", w.failed, w.positions)
		}
		b.ops(w.positions, w.failed)
	}
	warmUp()
	orc := &oracle{}
	// check verifies a replayed pass against the oracle.
	check := func(res *passResult) error {
		if res.positions >= len(st.pos) {
			b.note("the %d-request stream ran out %.3f s into the window", len(st.pos), res.elapsed)
		}
		b.note("pass: %s", res.exact)
		return orc.verify(b, st, res, clients)
	}

	if !b.traced {
		mem := startMemSampler()
		res := replay(f, httpc, st, clients, b.seconds, 0, nil)
		peaks := mem.finish()
		if err := check(res); err != nil {
			return err
		}
		b.window(res.positions, res.elapsed, res.lat, peaks, "requests", "requests")
		b.note("req_per_s %.4f, req_p50_ms %.4f, req_p99_ms %.4f (%d requests, %d failed, %d closed-loop clients)",
			float64(res.positions)/res.elapsed, median(res.lat)*1e3, quantile(res.lat, 0.99)*1e3, res.positions, res.failed, clients)
		return nil
	}

	u := replay(f, httpc, st, clients, b.seconds/2, 0, nil)
	if err := check(u); err != nil {
		return err
	}
	// The traced pass replays the same positions against a fresh fleet
	// given the same warm-up.
	f.stop()
	var err error
	if f, err = startFleet(); err != nil {
		return err
	}
	warmUp()
	shares0, err := f.routedShares(httpc)
	if err != nil {
		return err
	}
	b.tr = newTracer()
	m0 := memNow()
	c0 := f.counts()
	t := replay(f, httpc, st, clients, 0, u.positions, b.tr)
	c1 := f.counts()
	b.perOp(m0, t.positions)
	orc = &oracle{} // the traced pass times RunJob afresh for service.runjob_ms
	if err := check(t); err != nil {
		return err
	}
	b.purity("serve pass counters", []string{u.exact}, []string{t.exact})
	b.overhead(u.lat, t.lat)

	hits, misses := float64(c1.CacheHits-c0.CacheHits), float64(c1.CacheMisses-c0.CacheMisses)
	b.set("cache.hit_ratio", hits/(hits+misses))
	b.set("cache.evictions", float64(c1.CacheEvictions-c0.CacheEvictions))
	b.set("service.coalesced", float64(c1.Coalesced-c0.Coalesced))
	b.set("service.rejected", float64(c1.Rejected-c0.Rejected))
	b.set("service.runjob_ms", median(orc.runjob)*1e3)
	shares1, err := f.routedShares(httpc)
	if err != nil {
		return err
	}
	var total, max float64
	for k, v := range shares1 {
		d := v - shares0[k]
		total += d
		if d > max {
			max = d
		}
	}
	b.set("router.max_share", max/total)

	if err := b.probeRTT(f, httpc, st, orc, t.positions); err != nil {
		return err
	}
	keys := b.timed("probe.service.canonical_key", b.probeBudget(), func() {
		for _, r := range st.reqs[:256] {
			service.CanonicalKey(r)
		}
	})
	b.set("service.canonical_key_us", median(keys)/256*1e6)

	sample := make([]*chaos.Scenario, 64)
	for i := range sample {
		s, err := chaos.ParseArgs(st.reqs[i].Scenario)
		if err != nil {
			return err
		}
		sample[i] = s
	}
	if err := b.probeScenarios(chaos.Options{Seed: b.seed}, sample, false); err != nil {
		return err
	}
	// Message counts over every job the traced pass executed, from the
	// replicas' own counters.
	var iters float64
	for p := 0; p < t.positions; p++ {
		if st.intro[p] {
			iters += float64(orc.iters[st.pos[p]])
		}
	}
	b.set("cluster.msgs_per_iter", float64(c1.Ranks.MsgsSent-c0.Ranks.MsgsSent)/iters)
	b.set("cluster.bytes_per_iter", float64(c1.Ranks.BytesSent-c0.Ranks.BytesSent)/iters)
	b.set("cluster.collectives_per_iter", float64(c1.Ranks.Collectives-c0.Ranks.Collectives)/iters)
	return b.probeSmallSystem()
}

// probeRTT times cached requests sent straight to one replica and the
// same requests through the router, one at a time.
func (b *bench) probeRTT(f *fleetUT, c *http.Client, st *stream, orc *oracle, positions int) error {
	n := positions / missEvery
	if n > 200 {
		n = 200
	}
	rtt := func(name, url string) ([]float64, error) {
		var ds []float64
		for k := 0; k < n; k++ {
			id := b.tr.begin(name, 0, -1)
			t0 := time.Now()
			code, body, err := post(c, url, st.wire[k])
			d := time.Since(t0).Seconds()
			b.tr.end(id)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("%s: job %d: status %d: %v", name, k, code, err)
			}
			b.op(bytes.Equal(body, orc.bodies[k]), "%s: job %d: served %s, oracle %s", name, k, body, orc.bodies[k])
			ds = append(ds, d)
		}
		return ds, nil
	}
	// The first round puts every sampled job into replica 0's cache.
	if _, err := rtt("probe.direct_fill", f.urls[0]); err != nil {
		return err
	}
	direct, err := rtt("probe.direct_hit", f.urls[0])
	if err != nil {
		return err
	}
	routed, err := rtt("probe.router_hit", f.rurl)
	if err != nil {
		return err
	}
	b.set("service.hit_rtt_ms", median(direct)*1e3)
	b.set("router.hop_ms", (median(routed)-median(direct))*1e3)
	return nil
}
