package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/render"
	"repro/internal/scenariogen"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The service-queries workload: an open loop of Poisson-timed POSTs
// against an in-process serve.New server on a loopback listener.
const (
	// serviceRate is the fixed offered load in requests per second: about
	// half the closed-loop saturation rate `perfbench -calibrate` measured
	// on a 2-vCPU VM (see RATIONALE.md).
	serviceRate = 150.0
	// serviceConns bounds the client's connections to the server.
	serviceConns = 2
	// repeatShare is the share of requests that repeat an earlier
	// (endpoint, scenario, parameters) triple, so the result cache hits.
	repeatShare = 0.2
	// templateShare is the share of fresh requests that post one of the
	// built-in families' real-case templates instead of a generated
	// scenario.
	templateShare = 0.1
	// serviceCache is the server's result-cache bound, the CLI's default
	// (`rtether serve -cache-entries`).
	serviceCache = 256
	// repeatWindow is how far back a repeat reaches: a request repeats
	// one of the previous repeatWindow requests, well inside the cache.
	repeatWindow = 64
	// setupRounds is how many times a run brings a server up; setup_s is
	// the median.
	setupRounds = 11
	// warmupScenarios is how many scenarios each bring-up posts to every
	// endpoint before the server counts as ready.
	warmupScenarios = 4
	// maxOutstanding bounds the client goroutines of the open loop.
	maxOutstanding = 512
)

// genParams sizes generated scenarios at avionics scale.
var genParams = scenariogen.Params{MaxStations: 16, MaxMessages: 60}

// svcKey identifies one distinct response: the server caches on exactly
// these fields (endpoint, semantic parameters, scenario content).
type svcKey struct {
	Endpoint  string // analyze, backlog or validate
	Scenario  int    // index into svcInputs.Bodies
	Seed      uint64 // validate only
	HorizonUs int    // validate only
}

// path is the request URI of the key.
func (k svcKey) path() string {
	switch k.Endpoint {
	case "analyze":
		return "/v1/analyze?e2e=1"
	case "backlog":
		return "/v1/backlog"
	default:
		return fmt.Sprintf("/v1/validate?reps=%d&seed=%d&horizon_us=%d&parallel=%d",
			validateReps, k.Seed, k.HorizonUs, validateParallel)
	}
}

const (
	validateReps     = 2
	validateParallel = 1
)

// svcRequest is one scheduled POST.
type svcRequest struct {
	Due    time.Duration // offset from the start of the measured phase
	Key    int           // index into svcInputs.Keys
	Repeat bool          // an earlier request had the same key
}

// svcInputs is everything the seed determines.
type svcInputs struct {
	Bodies   [][]byte // scenario JSON: the family templates first, then generated ones
	Keys     []svcKey
	Requests []svcRequest
	Warmup   [][]byte // the scenarios each setup round posts
}

// genService derives the request stream of a run from the seed alone.
func genService(seed uint64, seconds time.Duration) (*svcInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7_1ce))
	in := &svcInputs{}
	for _, fam := range topology.Families() {
		cfg, err := topology.Template(fam.Key)
		if err != nil {
			return nil, err
		}
		body, err := encodeScenario(cfg)
		if err != nil {
			return nil, err
		}
		in.Bodies = append(in.Bodies, body)
	}
	templates := len(in.Bodies)
	fresh := func() (int, error) {
		if rng.Float64() < templateShare {
			return rng.IntN(templates), nil
		}
		body, err := encodeScenario(scenariogen.Generate(rng.Uint64(), genParams))
		if err != nil {
			return 0, err
		}
		in.Bodies = append(in.Bodies, body)
		return len(in.Bodies) - 1, nil
	}
	index := map[svcKey]int{}
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / serviceRate * float64(time.Second))
		if t >= seconds {
			break
		}
		var k svcKey
		if len(in.Requests) > 0 && rng.Float64() < repeatShare {
			back := min(len(in.Requests), repeatWindow)
			k = in.Keys[in.Requests[len(in.Requests)-1-rng.IntN(back)].Key]
		} else {
			sc, err := fresh()
			if err != nil {
				return nil, err
			}
			switch x := rng.Float64(); {
			case x < 0.5:
				k = svcKey{Endpoint: "analyze", Scenario: sc}
			case x < 0.8:
				k = svcKey{Endpoint: "backlog", Scenario: sc}
			default:
				k = svcKey{Endpoint: "validate", Scenario: sc,
					Seed: rng.Uint64N(1 << 32), HorizonUs: 100_000 + 1_000*rng.IntN(101)}
			}
		}
		id, seen := index[k]
		if !seen {
			id = len(in.Keys)
			index[k] = id
			in.Keys = append(in.Keys, k)
		}
		in.Requests = append(in.Requests, svcRequest{Due: t, Key: id, Repeat: seen})
	}
	// Warm-up scenarios are the same for every seed, so that set-up does
	// the same work in every run.
	for i := range warmupScenarios {
		body, err := encodeScenario(scenariogen.Generate(uint64(i), genParams))
		if err != nil {
			return nil, err
		}
		in.Warmup = append(in.Warmup, body)
	}
	return in, nil
}

func encodeScenario(cfg *topology.Config) ([]byte, error) {
	var buf bytes.Buffer
	if err := cfg.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// measuredRepeatShare is the share of requests whose key repeats.
func (in *svcInputs) measuredRepeatShare() float64 {
	r := 0
	for _, rq := range in.Requests {
		if rq.Repeat {
			r++
		}
	}
	return float64(r) / float64(max(len(in.Requests), 1))
}

// liveServer is one in-process service on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:  serve.New(serve.Config{CacheEntries: serviceCache, MaxInflight: serviceConns}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

// response is what the client keeps of one reply: the status, a digest
// of the body (bodies themselves would inflate the retained heap), and
// whether the server answered from its cache.
type response struct {
	status int
	sum    [32]byte
	hit    bool
}

func post(c *http.Client, url string, body []byte) (response, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return response{}, err
	}
	out := response{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit"}
	h.Sum(out.sum[:0])
	return out, nil
}

func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxConnsPerHost:     serviceConns,
		MaxIdleConnsPerHost: serviceConns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr
}

// bringUp starts a server and waits until it answers /healthz and an
// analyze, backlog and validate request on each warm-up scenario.
func bringUp(c *http.Client, warmup [][]byte) (*liveServer, error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	resp, err := c.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	for _, warm := range warmup {
		for _, ep := range []string{"analyze", "backlog", "validate"} {
			if err != nil {
				break
			}
			var r response
			r, err = post(c, s.base+svcKey{Endpoint: ep, Seed: 1, HorizonUs: 100_000}.path(), warm)
			if err == nil && r.status != http.StatusOK && r.status != http.StatusInternalServerError {
				err = fmt.Errorf("warm-up %s: status %d", ep, r.status)
			}
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// outcome is the client-side record of one request of the open loop.
type outcome struct {
	response
	err        bool
	sent, done time.Duration // offsets from the phase start
}

// openLoop sends every request at its due time, whatever the state of
// earlier ones, and records when each was sent and answered.
func openLoop(c *http.Client, base string, in *svcInputs, out []outcome) {
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i, rq := range in.Requests {
		if d := rq.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			k := in.Keys[rq.Key]
			r, err := post(c, base+k.path(), in.Bodies[k.Scenario])
			out[i].done = time.Since(start)
			out[i].response, out[i].err = r, err != nil
		}()
	}
	wg.Wait()
}

// clientProcs is the GOMAXPROCS of a service run: the server computes on
// serviceConns slots and the in-process client gets as many Ps again, so
// that the generator and response readers do not wait for a P behind
// compute-bound handlers, as a client on another host would not.
func clientProcs() int { return runtime.GOMAXPROCS(0) + serviceConns }

// dueLatencies times each request from when it was due, so a stall is
// charged to every request queued behind it, not only to the one that
// met it.
func dueLatencies(in *svcInputs, out []outcome) []time.Duration {
	lat := make([]time.Duration, len(out))
	for i, o := range out {
		lat[i] = o.done - in.Requests[i].Due
	}
	return lat
}

// reference computes the response the server must give for a key by the
// in-process path the handler takes: load, hash, bind, render.
func reference(k svcKey, body []byte) response {
	status, out := handle(nil, -1, 0, k, body, false)
	return response{status: status, sum: sha256.Sum256(out)}
}

// handle replays the handler's calls for one request, with a span around
// each layer call when tr is non-nil. A cached key stops after bind, as a
// cache hit does. It returns the status and body the server would send.
func handle(tr *tracer, root, op int, k svcKey, body []byte, cached bool) (int, []byte) {
	var (
		cfg *topology.Config
		sc  *core.Scenario
		err error
	)
	tr.do("topology.load", root, op, func() { cfg, err = topology.Load(bytes.NewReader(body)) })
	if err != nil {
		return http.StatusBadRequest, []byte(err.Error() + "\n")
	}
	tr.do("core.hash", root, op, func() { _, err = core.CanonicalConfigHash(cfg) })
	if err != nil {
		return http.StatusBadRequest, []byte(err.Error() + "\n")
	}
	tr.do("core.bind", root, op, func() { sc, err = core.NewScenario(cfg) })
	if err != nil {
		return http.StatusBadRequest, []byte(err.Error() + "\n")
	}
	if cached {
		return http.StatusOK, nil
	}
	var buf bytes.Buffer
	tr.do("render."+k.Endpoint, root, op, func() {
		switch k.Endpoint {
		case "analyze":
			err = render.Analyze(&buf, sc, true)
		case "backlog":
			err = render.Backlog(&buf, sc, false)
		default:
			opts := core.SweepOptions{Workers: validateParallel, Reps: validateReps, Seed: k.Seed}
			err = render.Validate(&buf, sc, opts, simtime.Duration(k.HorizonUs)*simtime.Microsecond, true)
		}
	})
	if err != nil {
		return http.StatusInternalServerError, []byte(err.Error() + "\n")
	}
	return http.StatusOK, buf.Bytes()
}

// verify compares every response with the in-process reference of its
// key, computed once per distinct key on two workers.
func verify(in *svcInputs, out []outcome) (failed int, firstErr string, err error) {
	used := make([]bool, len(in.Keys))
	for i := range out {
		used[in.Requests[i].Key] = true
	}
	refs, err := sweep.RunIndexed(in.Keys, 2, func(i int, k svcKey) (response, error) {
		if !used[i] {
			return response{}, nil
		}
		return reference(k, in.Bodies[k.Scenario]), nil
	})
	if err != nil {
		return 0, "", err
	}
	for i, o := range out {
		k := in.Requests[i].Key
		ref := refs[k]
		if o.err || o.status != ref.status || o.sum != ref.sum {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("request %d (%s): status %d, want %d (transport error %v, body digest match %v)",
					i, in.Keys[k].path(), o.status, ref.status, o.err, o.sum == ref.sum)
			}
		}
	}
	return failed, firstErr, nil
}

// runService measures the end-to-end metrics of the service workload.
func runService(cfg runConfig, r *report) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs()))
	t0 := time.Now()
	in, err := genService(cfg.seed, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.out, "inputs: %d requests, %d distinct responses, %d scenarios, generated in %.3f s (not in setup_s)\n",
		len(in.Requests), len(in.Keys), len(in.Bodies), time.Since(t0).Seconds())
	out := make([]outcome, len(in.Requests))
	heap0 := liveHeap()

	client, transport := newClient()
	defer transport.CloseIdleConnections()
	var (
		setup setupTimes
		srv   *liveServer
	)
	for range setupRounds {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return result{}, err
			}
			transport.CloseIdleConnections()
		}
		if err := setup.round(func() (err error) { srv, err = bringUp(client, in.Warmup); return err }); err != nil {
			return result{}, err
		}
	}
	defer srv.stop()

	before := sampleProc()
	openLoop(client, srv.base, in, out)
	after := sampleProc()
	heap1 := liveHeap()
	stats, err := fetchStats(client, srv.base)
	if err != nil {
		return result{}, err
	}

	failed, firstErr, err := verify(in, out)
	if err != nil {
		return result{}, err
	}
	n := len(out)
	all := dueLatencies(in, out)
	lat, wins := windowed(all)
	d := before.to(after)
	var lag, hits []time.Duration
	for i, o := range out {
		lag = append(lag, o.sent-in.Requests[i].Due)
		if o.hit {
			hits = append(hits, o.done-o.sent)
		}
	}
	lagT, hitT := summarize(lag), summarize(hits)
	byEndpoint := map[string][]time.Duration{}
	for i, l := range all {
		k := in.Keys[in.Requests[i].Key]
		byEndpoint[k.Endpoint] = append(byEndpoint[k.Endpoint], l)
	}

	setup.report(r, fmt.Sprintf("server bring-up: listen, /healthz, %d warm-up POSTs", 3*warmupScenarios))
	r.set("cpu_ms_per_op", ms(d.cpu)/float64(n), "ms", "process CPU (server and client) per request")
	r.set("retained_heap_mb", mb(int64(heap1)-int64(heap0)), "MB", "live heap after the run minus before set-up")
	r.info("latency_p50_ms", ms(lat.P50), "ms", fmt.Sprintf("from due time; median of %d windows, n=%d", len(wins), lat.N))
	r.info("latency_p99_ms", ms(lat.P99), "ms", tailNote(lat))
	r.info("ops_per_s", float64(n)/d.wall.Seconds(), "1/s", fmt.Sprintf("requests answered per second at %.0f rps offered", serviceRate))
	computes := float64(stats.Computes) / float64(n)
	hitRatio := float64(stats.Cache.Hits+stats.Cache.Coalesced) / float64(max(stats.Cache.Hits+stats.Cache.Coalesced+stats.Cache.Misses, 1))
	r.info("fail_ratio", float64(failed)/float64(n), "ratio", fmt.Sprintf("%d of %d responses differ from the in-process reference", failed, n))
	r.info("repeat_share", in.measuredRepeatShare(), "ratio", "requests repeating an earlier (endpoint, scenario, parameters)")
	r.info("serve.hit_ratio", hitRatio, "ratio", "/v1/stats (hits+coalesced)/lookups")
	r.info("serve.computes_per_request", computes, "ratio", "/v1/stats computes / requests")
	r.info("serve.hit_us", us(hitT.P50), "us", fmt.Sprintf("median client latency of X-Cache: hit responses, n=%d", hitT.N))
	r.info("serve.admission_wait_max_ms", float64(stats.Admission.MaxWaitMicro)/1000, "ms", "/v1/stats")
	r.info("serve.queued_peak", float64(stats.Admission.QueuedPeak), "count", "/v1/stats")
	r.info("client.lag_p99_ms", ms(lagT.P99), "ms", "generator lateness, part of latency from due; a large value means the client, not the server, fell behind")
	for w, t := range wins {
		fmt.Fprintf(cfg.out, "  window %d n=%-6d p50 %.3f ms  p99 %.3f ms\n", w, t.N, ms(t.P50), ms(t.P99))
	}

	for _, ep := range slices.Sorted(maps.Keys(byEndpoint)) {
		t := summarize(byEndpoint[ep])
		fmt.Fprintf(cfg.out, "  %-8s n=%-6d p50 %.3f ms  p99 %.3f ms  max %.3f ms\n", ep, t.N, ms(t.P50), ms(t.P99), ms(byEndpoint[ep][t.N-1]))
	}
	if firstErr != "" {
		fmt.Fprintln(cfg.out, "first mismatch:", firstErr)
	}
	return result{Correct: failed == 0, Attempted: n, Failed: failed}, nil
}

// tailNote states the sample count behind a p99 and warns when the
// percentile rule (at least ten samples beyond) does not support it.
func tailNote(t timing) string {
	if t.TailPct < 99 {
		return fmt.Sprintf("WARNING: n=%d supports only p%g (%.4g ms)", t.N, t.TailPct, ms(t.Tail))
	}
	return fmt.Sprintf("n=%d; the rule's tail is p%g = %.4g ms", t.N, t.TailPct, ms(t.Tail))
}

func fetchStats(c *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}

// traceService replays the request stream in process, one request at a
// time, through the calls the handler makes. Odd requests are traced and
// even ones are not, so the traced/untraced cost ratio compares like with
// like. After each traced request the calls render made internally are
// replayed once more as their own spans, which gives the analysis and
// simulator figures and, by subtraction, render's own cost.
func traceService(cfg runConfig, r *report) (result, error) {
	in, err := genService(cfg.seed, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(1 << 16)
	probe := &allocProbe{}
	seen := make([]bool, len(in.Keys))
	var (
		failed, ops, untracedOps int
		untraced                 time.Duration
		events                   uint64
		runs                     int
		renderTotal, innerTotal  time.Duration
		gcCycles, allocBytes     uint64
	)
	start := sampleProc()
	deadline := start.at.Add(cfg.seconds)
	for i, rq := range in.Requests {
		if time.Now().After(deadline) {
			break
		}
		k := in.Keys[rq.Key]
		body := in.Bodies[k.Scenario]
		cached := seen[rq.Key]
		seen[rq.Key] = true
		ops++
		if i%2 == 0 {
			before := sampleProc()
			status, _ := handle(nil, -1, i, k, body, cached)
			d := before.to(sampleProc())
			untraced += d.wall
			untracedOps++
			gcCycles += d.gcCycles
			allocBytes += d.allocBytes
			if status != http.StatusOK && status != http.StatusInternalServerError {
				failed++
			}
			continue
		}
		root := tr.begin("op", -1, i)
		status, _ := handle(tr, root, i, k, body, cached)
		tr.end(root)
		if status != http.StatusOK && status != http.StatusInternalServerError {
			failed++
			continue
		}
		if cached {
			continue
		}
		inner, innerErr, ev, n, err := replayInner(tr, i, k, body, probe)
		if err != nil {
			return result{}, err
		}
		// The replay must meet the error render met, or it did not make
		// the same calls.
		if innerErr != (status == http.StatusInternalServerError) {
			failed++
		}
		events += ev
		runs += n
		innerTotal += inner
		renderTotal += lastSpan(tr, "render."+k.Endpoint, i)
	}
	replay := start.to(sampleProc())
	spans := tr.snapshot()
	ts := summarizeTrace(spans)
	path, err := writeSpans(traceDir, "service-queries", cfg.seed, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.out, "replayed %d requests (%d traced); spans in %s\n", ops, ts.byName["op"].Count, path)

	r.set("topology.load_us", ts.byName["topology.load"].meanUs(), "us", "per topology.Load")
	r.info("core.hash_us", ts.byName["core.hash"].meanUs(), "us", "per core.CanonicalConfigHash")
	r.set("core.bind_us", ts.byName["core.bind"].meanUs(), "us", "per core.NewScenario")
	r.set("analysis.bound_us", ts.byName["analysis.bound"].meanUs(), "us", "per Scenario.Analyze, replayed after render's own call")
	r.set("analysis.backlog_us", ts.byName["analysis.backlog"].meanUs(), "us", "per Scenario.Backlogs, replayed after render's own call")
	simLayer(r, ts, probe, events, runs)
	r.set("sweep.busy_ratio", busyRatio(ts, validateParallel), "ratio", "validate replications on the sweep pool (parallel=1)")
	renderSelf := 0.0
	if n := ts.byName["render.analyze"].Count + ts.byName["render.backlog"].Count + ts.byName["render.validate"].Count; n > 0 {
		renderSelf = us(renderTotal-innerTotal) / float64(n)
	}
	r.info("render.self_us", renderSelf, "us", "render span minus its replayed analysis and simulator calls, per call")
	perOp := float64(max(untracedOps, 1))
	r.set("gc.cycles_per_op", float64(gcCycles)/perOp, "count", "GC cycles per untraced request")
	r.set("alloc_kb_per_op", float64(allocBytes)/1024/perOp, "KB", "heap bytes allocated per untraced request")
	overhead(r, ts, "op", validateParallel, untraced, untracedOps, replay,
		"HTTP is not on the in-process replay: the untraced run's serve.hit_us minus load, hash and bind here is its cost per request")
	return result{Correct: failed == 0, Attempted: ops, Failed: failed}, nil
}

// replayInner replays, as spans under an "inner" root, the analysis and
// simulator calls render made for one request. It returns their summed
// duration, whether they met an error (render stops at the first), the
// events simulated and the number of simulations.
func replayInner(tr *tracer, op int, k svcKey, body []byte, probe *allocProbe) (time.Duration, bool, uint64, int, error) {
	cfg, err := topology.Load(bytes.NewReader(body))
	if err != nil {
		return 0, false, 0, 0, err
	}
	sc, err := core.NewScenario(cfg)
	if err != nil {
		return 0, false, 0, 0, err
	}
	var (
		events uint64
		runs   int
	)
	root := tr.begin("inner", -1, op)
	calls := func() error {
		var err error
		switch k.Endpoint {
		case "analyze":
			for _, a := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
				if tr.do("analysis.bound", root, op, func() { _, err = sc.Analyze(a) }); err != nil {
					return err
				}
			}
			return nil
		case "backlog":
			tr.do("analysis.backlog", root, op, func() { _, err = sc.Backlogs() })
			return err
		}
		if tr.do("analysis.backlog", root, op, func() { _, err = sc.Backlogs() }); err != nil {
			return err
		}
		for _, a := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
			v := validateScenario(sc, a, k.HorizonUs)
			if tr.do("analysis.single_hop", root, op, func() { _, err = analysis.SingleHop(v.Set, a, v.Analysis()) }); err != nil {
				return err
			}
			if tr.do("analysis.bound", root, op, func() { _, err = v.Analyze(a) }); err != nil {
				return err
			}
			pool := tr.begin("sweep.pool", root, op)
			sims, err := sweep.RunIndexed(make([]struct{}, validateReps), validateParallel, func(j int, _ struct{}) (*core.SimResult, error) {
				job := tr.begin("sweep.job", pool, op)
				defer tr.end(job)
				c := v.Sim
				c.Seed = des.SplitSeed(k.Seed, uint64(j))
				c.CollectLatencies = true
				return stagedSim(tr, job, op, v, c, probe)
			})
			tr.end(pool)
			if err != nil {
				return err
			}
			for _, s := range sims {
				events += s.Events
				runs++
			}
		}
		return nil
	}
	innerErr := calls() != nil
	tr.end(root)
	return spanDuration(tr, root), innerErr, events, runs, nil
}

// validateScenario is the scenario render.Validate simulates for one
// approach: the request's horizon, and randomized sources for replicated
// runs unless the scenario pins its source regime.
func validateScenario(sc *core.Scenario, a analysis.Approach, horizonUs int) *core.Scenario {
	v := sc.WithApproach(a)
	v.Sim.Horizon = simtime.Duration(horizonUs) * simtime.Microsecond
	pinned := sc.Cfg != nil && sc.Cfg.Sim != nil && (sc.Cfg.Sim.Mode != "" || sc.Cfg.Sim.AlignPhases != nil)
	if validateReps > 1 && !pinned {
		v.Sim.Mode = traffic.RandomGaps
		v.Sim.MeanSlack = core.DefaultMeanSlack
		v.Sim.AlignPhases = false
	}
	return v
}

// calibrateService measures the saturation rate the fixed offered load
// is derived from: a closed loop over the same request mix on
// serviceConns connections, each sending its next request as soon as the
// previous one is answered.
func calibrateService(cfg runConfig) error {
	// The offered-load stream is far longer than a closed loop needs.
	in, err := genService(cfg.seed, 10*cfg.seconds)
	if err != nil {
		return err
	}
	client, transport := newClient()
	defer transport.CloseIdleConnections()
	srv, err := bringUp(client, in.Warmup)
	if err != nil {
		return err
	}
	defer srv.stop()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range serviceConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < cfg.seconds {
				i := int(next.Add(1) - 1)
				if i >= len(in.Requests) {
					return
				}
				k := in.Keys[in.Requests[i].Key]
				if _, err := post(client, srv.base+k.path(), in.Bodies[k.Scenario]); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	done := min(int(next.Load()), len(in.Requests))
	rate := float64(done) / time.Since(start).Seconds()
	fmt.Fprintf(cfg.out, "closed loop, %d connections: %d requests in %.2f s = %.1f rps saturation; half is %.0f rps\n",
		serviceConns, done, time.Since(start).Seconds(), rate, rate/2)
	return nil
}
