package main

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The bounds-grid workload: bounds-only capacity planning over a dense
// rate ladder × load ladder for every family, cells on the sweep pool.
const (
	bRates   = 30
	bLoads   = 30
	bMaxLoad = 60 // extra RTs; every family stays stable at 10 Mbps below this
	bWorkers = 2
	// bSample is how many cells of the first pass are simulated to check
	// their bounds.
	bSample = 6
	// bHorizon is the simulated span of a checked cell: two major frames
	// from the critical instant.
	bHorizon = 320 * simtime.Millisecond
)

// bInputs is what the seed determines: the load ladder and the rate
// ladder of the grid, which every pass of a run repeats.
type bInputs struct {
	loads []int
	rates []simtime.Rate
}

// genBounds draws one load from each of bLoads equal steps of
// 0–bMaxLoad extra RTs, and bRates rates spread log-uniformly over
// 10–100 Mbps, one in each of bRates equal log-steps. Stratifying keeps
// the work of a grid nearly the same for every seed.
func genBounds(seed uint64) bInputs {
	rng := rand.New(rand.NewPCG(seed, 0xb0_0d5))
	in := bInputs{loads: make([]int, bLoads), rates: make([]simtime.Rate, bRates)}
	step := bMaxLoad / bLoads
	for i := range in.loads {
		in.loads[i] = i*step + rng.IntN(step)
	}
	for i := range in.rates {
		x := (float64(i) + rng.Float64()) / bRates
		kbps := int64(math.Round(1e4 * math.Pow(10, x)))
		in.rates[i] = simtime.Rate(kbps) * simtime.Kbps
	}
	return in
}

// bBind builds the base scenario of every (family, load) pair: the real
// case with extra RTs on the family's architecture, validated and routed.
// A cell is a base at one link rate.
func bBind(tr *tracer, in bInputs) ([]*core.Scenario, error) {
	var out []*core.Scenario
	for _, f := range topology.Families() {
		for _, l := range in.loads {
			id := tr.begin("core.bind", -1, len(out))
			set := traffic.RealCaseWith(l)
			var net *topology.Network
			tr.do("topology.load", id, len(out), func() { net = f.Build(set.Stations()) })
			err := net.Validate(set.Stations())
			if err == nil {
				_, err = net.NextHops()
			}
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("bind %s/%d: %w", f.Key, l, err)
			}
			out = append(out, &core.Scenario{
				Name: fmt.Sprintf("%s/%d RTs", f.Key, l), Set: set, Net: net,
				Sim: core.DefaultSimConfig(analysis.Priority),
			})
		}
	}
	return out, nil
}

// bCell is one grid cell: a base at a rate.
type bCell struct {
	base int
	rate simtime.Rate
}

// cells lists the grid in `topo -grid` order: families, then rates, then
// loads fastest.
func (in bInputs) cells() []bCell {
	cells := make([]bCell, 0, len(topology.Families())*bRates*bLoads)
	for f := range topology.Families() {
		for _, r := range in.rates {
			for l := range in.loads {
				cells = append(cells, bCell{base: f*bLoads + l, rate: r})
			}
		}
	}
	return cells
}

// bBounds is everything a cell computes.
type bBounds struct {
	fcfs, prio *analysis.Result
	backlogs   *core.NetworkBacklogs
}

// bEval bounds one cell under both disciplines and prices its backlogs.
func bEval(tr *tracer, parent, op int, s *core.Scenario) (bBounds, error) {
	var (
		b   bBounds
		err error
	)
	if tr.do("analysis.bound", parent, op, func() { b.fcfs, err = s.Analyze(analysis.FCFS) }); err != nil {
		return b, err
	}
	if tr.do("analysis.bound", parent, op, func() { b.prio, err = s.Analyze(analysis.Priority) }); err != nil {
		return b, err
	}
	tr.do("analysis.backlog", parent, op, func() { b.backlogs, err = s.Backlogs() })
	return b, err
}

func (c bCell) scenario(bases []*core.Scenario) *core.Scenario {
	s := *bases[c.base]
	s.Sim.LinkRate = c.rate
	return &s
}

// bPhase runs passes over the grid until the deadline, one family block
// at a time on the sweep pool; cells due after the deadline are skipped.
// traced selects which cells get layer spans (nil: none). sample names
// the first-pass cells whose bounds are kept for checking.
type bPhase struct {
	lat     []time.Duration
	doneAt  []time.Duration // completion times from the phase start, ascending
	cells   int
	kept    map[int]bBounds
	keptAt  map[int]bCell
	pairs   map[int]bool // (family, load) pairs seen
	reused  int          // cells whose pair had been seen before
	tr      *tracer
	traced  func(op int) bool
	opTimes []time.Duration // untraced cell durations (traced runs only)
	// firstPass samples the process when the first pass over the grid
	// ends, and firstCells counts its cells.
	firstPass  procSample
	firstCells int
}

func (ph *bPhase) run(in bInputs, bases []*core.Scenario, start, deadline time.Time, sample map[int]bool) error {
	var stop atomic.Bool
	op := 0
	cells := in.cells()
	for !stop.Load() {
		block := bRates * bLoads
		for lo := 0; lo < len(cells) && !stop.Load(); lo += block {
			chunk := cells[lo : lo+block]
			first := op
			pool := ph.tr.begin("sweep.pool", -1, first)
			type out struct {
				d, at time.Duration
				done  bool
				b     bBounds
			}
			res, err := sweep.RunIndexed(chunk, bWorkers, func(i int, c bCell) (out, error) {
				if time.Now().After(deadline) {
					stop.Store(true)
					return out{}, nil
				}
				k := first + i
				job := ph.tr.begin("sweep.job", pool, k)
				defer ph.tr.end(job)
				var root *tracer
				parent := -1
				if ph.traced != nil && ph.traced(k) {
					root = ph.tr
					parent = root.begin("op", job, k)
					defer root.end(parent)
				}
				t0 := time.Now()
				b, err := bEval(root, parent, k, c.scenario(bases))
				return out{d: time.Since(t0), at: time.Since(start), done: true, b: b}, err
			})
			ph.tr.end(pool)
			if err != nil {
				return err
			}
			mark := len(ph.doneAt)
			for i, o := range res {
				if !o.done {
					continue
				}
				k := first + i
				ph.cells++
				ph.lat = append(ph.lat, o.d)
				ph.doneAt = append(ph.doneAt, o.at)
				if ph.traced != nil && !ph.traced(k) {
					ph.opTimes = append(ph.opTimes, o.d)
				}
				if sample[k] {
					ph.kept[k], ph.keptAt[k] = o.b, chunk[i]
				}
				if ph.pairs[chunk[i].base] {
					ph.reused++
				}
				ph.pairs[chunk[i].base] = true
			}
			// Two workers finish cells slightly out of order.
			slices.Sort(ph.doneAt[mark:])
			op += len(chunk)
			if op == len(cells) {
				ph.firstPass, ph.firstCells = sampleProc(), ph.cells
			}
		}
	}
	return nil
}

func newPhase(tr *tracer, traced func(int) bool) *bPhase {
	return &bPhase{
		lat:    make([]time.Duration, 0, 1<<16),
		doneAt: make([]time.Duration, 0, 1<<16),
		kept:   map[int]bBounds{},
		keptAt: map[int]bCell{},
		pairs:  map[int]bool{},
		tr:     tr,
		traced: traced,
	}
}

// bSampleCells picks the first-pass cells whose bounds are checked.
func bSampleCells(seed uint64) map[int]bool {
	rng := rand.New(rand.NewPCG(seed, 0xc4ec))
	cells := len(topology.Families()) * bRates * bLoads
	out := map[int]bool{}
	for len(out) < bSample {
		out[rng.IntN(cells)] = true
	}
	return out
}

// bCheck simulates each kept cell from the critical instant under both
// disciplines and checks every connection's worst latency and every
// queue's high-water mark against the cell's bounds.
func bCheck(tr *tracer, ph *bPhase, bases []*core.Scenario, probe *allocProbe) (failed, sims int, events uint64, err error) {
	for _, k := range slices.Sorted(maps.Keys(ph.kept)) {
		b, c := ph.kept[k], ph.keptAt[k]
		s := c.scenario(bases)
		for _, e2e := range []*analysis.Result{b.fcfs, b.prio} {
			cfg := s.Sim
			cfg.Approach = e2e.Approach
			cfg.Horizon = bHorizon
			root := tr.begin("check", -1, k)
			res, err := stagedSim(tr, root, k, s, cfg, probe)
			tr.end(root)
			if err != nil {
				return 0, 0, 0, err
			}
			sims++
			events += res.Events
			ok := b.backlogs.Check([]*core.SimResult{res}).Sound()
			for _, f := range e2e.Flows {
				if res.WorstLatency(f.Spec.Msg.Name) > f.EndToEnd {
					ok = false
				}
			}
			if !ok {
				failed++
			}
		}
	}
	return failed, sims, events, nil
}

// runBounds measures the end-to-end metrics of the bounds grid.
func runBounds(cfg runConfig, r *report) (result, error) {
	in := genBounds(cfg.seed)
	sample := bSampleCells(cfg.seed)
	ph := newPhase(nil, nil)
	heap0 := liveHeap()
	var (
		setup setupTimes
		bases []*core.Scenario
	)
	for range setupRounds {
		if err := setup.round(func() (err error) { bases, err = bBind(nil, in); return err }); err != nil {
			return result{}, err
		}
	}
	before := sampleProc()
	if err := ph.run(in, bases, before.at, before.at.Add(cfg.seconds), sample); err != nil {
		return result{}, err
	}
	after := sampleProc()
	heap1 := liveHeap()
	failed, sims, _, err := bCheck(nil, ph, bases, nil)
	if err != nil {
		return result{}, err
	}

	d := before.to(after)
	// CPU per cell is taken over the first pass, when the process-wide
	// caches are as cold as in one `rtether` invocation. Over the whole
	// run it would weigh the cold pass by how many warm passes a run of
	// this length fits, which varies with the host's speed.
	first, firstCells := d, ph.cells
	if ph.firstCells > 0 {
		first, firstCells = before.to(ph.firstPass), ph.firstCells
	}
	t, wins := windowed(ph.lat)
	n := ph.cells
	setup.report(r, fmt.Sprintf("the %d (family, load) base scenarios built", len(bases)))
	r.set("cpu_ms_per_op", ms(first.cpu)/float64(firstCells), "ms",
		fmt.Sprintf("process CPU per cell over the first pass (%d cells)", firstCells))
	r.info("cpu_ms_per_op_run", ms(d.cpu)/float64(n), "ms", "process CPU per cell over the whole run, warm passes included")
	r.set("retained_heap_mb", mb(int64(heap1)-int64(heap0)), "MB", "live heap after the run minus before set-up")
	r.info("latency_p50_ms", ms(t.P50), "ms", fmt.Sprintf("per cell (2 bounds + backlogs); median of %d windows, n=%d", len(wins), t.N))
	r.info("latency_p99_ms", ms(t.P99), "ms", tailNote(t))
	r.info("ops_per_s", windowRate(ph.doneAt), "1/s",
		fmt.Sprintf("grid cells per second, median of the same windows (%.4g over the run); %d×%d×%d cells per pass",
			float64(n)/d.wall.Seconds(), len(topology.Families()), bRates, bLoads))
	r.info("fail_ratio", float64(failed)/float64(n), "ratio", fmt.Sprintf("%d of %d checked simulations exceeded a bound", failed, sims))
	r.info("reuse_share", float64(ph.reused)/float64(max(n, 1)), "ratio", "cells whose (family, load) pair appeared earlier")
	return result{Correct: failed == 0, Attempted: n, Failed: failed}, nil
}

// traceBounds replays the same grid with spans around the bind and each
// cell's layer calls; odd cells are traced, even ones are not. The
// checked cells' simulations run alone, so they also give the simulator
// figures and allocations per window.
func traceBounds(cfg runConfig, r *report) (result, error) {
	in := genBounds(cfg.seed)
	sample := bSampleCells(cfg.seed)
	tr := newTracer(1 << 18)
	bases, err := bBind(tr, in)
	if err != nil {
		return result{}, err
	}
	ph := newPhase(tr, func(op int) bool { return op%2 == 1 })
	before := sampleProc()
	if err := ph.run(in, bases, before.at, before.at.Add(cfg.seconds), sample); err != nil {
		return result{}, err
	}
	d := before.to(sampleProc())
	probe := &allocProbe{}
	failed, sims, events, err := bCheck(tr, ph, bases, probe)
	if err != nil {
		return result{}, err
	}

	spans := tr.snapshot()
	ts := summarizeTrace(spans)
	path, err := writeSpans(traceDir, "bounds-grid", cfg.seed, spans)
	if err != nil {
		return result{}, err
	}
	n := ph.cells
	fmt.Fprintf(cfg.out, "replayed %d cells (%d traced); %d checked simulations; spans in %s\n", n, ts.byName["op"].Count, sims, path)
	r.set("topology.load_us", ts.byName["topology.load"].meanUs(), "us", "per Family.Build of a base scenario's network")
	r.set("core.bind_us", ts.byName["core.bind"].meanSelfUs(), "us", "per base bind, self time (workload, validation, routing)")
	r.set("analysis.bound_us", ts.byName["analysis.bound"].meanUs(), "us", "per Scenario.Analyze")
	r.set("analysis.backlog_us", ts.byName["analysis.backlog"].meanUs(), "us", "per Scenario.Backlogs")
	simLayer(r, ts, probe, events, sims)
	r.set("sweep.busy_ratio", busyRatio(ts, bWorkers), "ratio", fmt.Sprintf("cell jobs / (%d workers × pool wall)", bWorkers))
	r.set("gc.cycles_per_op", float64(d.gcCycles)/float64(max(n, 1)), "count", "GC cycles per cell, traced and untraced")
	r.set("alloc_kb_per_op", float64(d.allocBytes)/1024/float64(max(n, 1)), "KB", "heap bytes allocated per cell, traced and untraced")
	var untraced time.Duration
	for _, t := range ph.opTimes {
		untraced += t
	}
	overhead(r, ts, "op", bWorkers, untraced, len(ph.opTimes), d, "the workload has no HTTP")
	return result{Correct: failed == 0, Attempted: n, Failed: failed}, nil
}
