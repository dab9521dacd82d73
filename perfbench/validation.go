package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The validation-sweep workload: the `rtether topo -grid` design sweep,
// every family × {10, 100} Mbps × {0, 8, 16} extra RTs, each cell
// cross-validated against randomized-source replications.
const (
	vReps    = 4
	vHorizon = 1 * simtime.Second
	vWorkers = 2
	// vSample is how many completed cells are re-run at one worker.
	vSample = 3
)

var (
	vRates = []simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps}
	vLoads = []int{0, 8, 16}
)

// vPoint is one cell run: a grid point, the discipline and the root seed
// of its replications.
type vPoint struct {
	Family   topology.Family
	Rate     simtime.Rate
	ExtraRTs int
	Approach analysis.Approach
	Seed     uint64
}

// vCell is the folded outcome of one cell.
type vCell struct {
	BoundWorst, ObservedWorst simtime.Duration
	Delivered, Unsound        int
	Redundant, Discarded      int
	Events                    uint64
	Backlog                   core.BacklogVerdict
}

func (c vCell) sound() bool { return c.Unsound == 0 && c.Backlog.Sound() }

// vGrid is the 36 grid coordinates in `topo -grid` order.
func vGrid() []vPoint {
	var out []vPoint
	for _, f := range topology.Families() {
		for _, r := range vRates {
			for _, l := range vLoads {
				out = append(out, vPoint{Family: f, Rate: r, ExtraRTs: l})
			}
		}
	}
	return out
}

// vOps derives the first n cell runs of a seed: the grid in order, over
// and over, each run with its own discipline and replication seed.
func vOps(seed uint64, n int) []vPoint {
	grid := vGrid()
	rng := rand.New(rand.NewPCG(seed, 0x7a11d))
	ops := make([]vPoint, n)
	for i := range ops {
		p := grid[i%len(grid)]
		p.Approach = analysis.Priority
		if rng.IntN(2) == 0 {
			p.Approach = analysis.FCFS
		}
		p.Seed = des.SplitSeed(seed, uint64(i))
		ops[i] = p
	}
	return ops
}

// vBind builds a cell's scenario as `topo -grid` does: the real case with
// extra RTs on the family's architecture, randomized sources.
func vBind(tr *tracer, parent, op int, p vPoint) *core.Scenario {
	set := traffic.RealCaseWith(p.ExtraRTs)
	cfg := core.SweepGridConfig(p.Approach, 140*simtime.Microsecond, vHorizon, vReps)
	cfg.LinkRate = p.Rate
	var net *topology.Network
	tr.do("topology.load", parent, op, func() { net = p.Family.Build(set.Stations()) })
	return &core.Scenario{
		Name: fmt.Sprintf("%s/%v/%d RTs", p.Family.Key, p.Rate, p.ExtraRTs),
		Set:  set,
		Net:  net,
		Sim:  cfg,
	}
}

// vFold cross-validates a cell: every connection's worst observed latency
// against its bound, and every queue's high-water mark against its
// backlog bound.
func vFold(tr *tracer, parent, op int, s *core.Scenario, e2e *analysis.Result, sims []*core.SimResult) (vCell, error) {
	var c vCell
	for _, f := range e2e.Flows {
		c.BoundWorst = max(c.BoundWorst, f.EndToEnd)
		worst := simtime.Duration(0)
		for _, sim := range sims {
			fs := sim.Flows[f.Spec.Msg.Name]
			worst = max(worst, fs.Latency.Max())
			c.Delivered += fs.Delivered
		}
		if worst > f.EndToEnd {
			c.Unsound++
		}
		c.ObservedWorst = max(c.ObservedWorst, worst)
	}
	for _, sim := range sims {
		c.Redundant += sim.Redundant
		c.Discarded += sim.Discarded
		c.Events += sim.Events
	}
	var (
		bl  *core.NetworkBacklogs
		err error
	)
	tr.do("analysis.backlog", parent, op, func() { bl, err = s.Backlogs() })
	if err != nil {
		return c, err
	}
	c.Backlog = bl.Check(sims)
	return c, nil
}

// vRun runs one cell through core.Experiment.Run.
func vRun(p vPoint, workers int) (vCell, error) {
	exp := core.Experiment[vPoint, vCell]{
		Points: []vPoint{p},
		Bind:   func(p vPoint) (*core.Scenario, error) { return vBind(nil, -1, 0, p), nil },
		Cell: func(_ vPoint, s *core.Scenario, e2e *analysis.Result, sims []*core.SimResult) (vCell, error) {
			return vFold(nil, -1, 0, s, e2e, sims)
		},
	}
	out, err := exp.Run(core.SweepOptions{Workers: workers, Reps: vReps, Seed: p.Seed})
	if err != nil {
		return vCell{}, err
	}
	return out[0], nil
}

// vSetup builds and bounds the whole grid, as the experiment's first
// phase does.
func vSetup() error {
	for _, p := range vGrid() {
		p.Approach = analysis.Priority
		s := vBind(nil, -1, 0, p)
		if _, err := s.Analyze(s.Sim.Approach); err != nil {
			return err
		}
	}
	return nil
}

// runValidation measures the end-to-end metrics of the design sweep.
func runValidation(cfg runConfig, r *report) (result, error) {
	// A run cannot complete more cells than this. The harness's slices
	// are built before set-up so that they do not count as retained heap.
	ops := vOps(cfg.seed, int(cfg.seconds/time.Millisecond))
	cells := make([]vCell, 0, len(ops))
	lat := make([]time.Duration, 0, len(ops))
	doneAt := make([]time.Duration, 0, len(ops))
	heap0 := liveHeap()
	var setup setupTimes
	for range setupRounds {
		if err := setup.round(vSetup); err != nil {
			return result{}, err
		}
	}

	failed := 0
	before := sampleProc()
	deadline := before.at.Add(cfg.seconds)
	for _, p := range ops {
		if time.Now().After(deadline) {
			break
		}
		start := time.Now()
		c, err := vRun(p, vWorkers)
		lat = append(lat, time.Since(start))
		doneAt = append(doneAt, time.Since(before.at))
		if err != nil || !c.sound() {
			failed++
		}
		cells = append(cells, c)
	}
	after := sampleProc()
	heap1 := liveHeap()
	n := len(cells)

	// Bit-identity at any worker count, on a seeded sample of the cells.
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5a3b1e))
	mismatches := 0
	for range vSample {
		i := rng.IntN(n)
		c, err := vRun(ops[i], 1)
		if err != nil || !reflect.DeepEqual(c, cells[i]) {
			mismatches++
		}
	}
	failed += mismatches

	d := before.to(after)
	t, wins := windowed(lat)
	setup.report(r, "the 36-point grid built and bounded")
	r.set("cpu_ms_per_op", ms(d.cpu)/float64(n), "ms", "process CPU per cell")
	r.set("retained_heap_mb", mb(int64(heap1)-int64(heap0)), "MB", "live heap after the run minus before set-up")
	r.info("latency_p50_ms", ms(t.P50), "ms", fmt.Sprintf("per cell (%d replications of %v on %d workers); median of %d windows, n=%d", vReps, vHorizon, vWorkers, len(wins), t.N))
	r.info("latency_p99_ms", ms(t.P99), "ms", tailNote(t))
	r.info("ops_per_s", windowRate(doneAt), "1/s", fmt.Sprintf("grid cells completed per second, median of the same windows (%.4g over the run)", float64(n)/d.wall.Seconds()))
	r.info("fail_ratio", float64(failed)/float64(n), "ratio",
		fmt.Sprintf("%d unsound or failed cells, %d of %d sampled cells differ at 1 worker", failed-mismatches, mismatches, vSample))
	return result{Correct: failed == 0, Attempted: n, Failed: failed}, nil
}

// traceValidation replays the same cell runs with the simulator staged
// (NewNetworkSim, Advance windows, Finish) on the same replication seeds.
// Even cells run untraced through core.Experiment.Run for the overhead
// ratio; a sample of traced cells must equal their untraced result.
func traceValidation(cfg runConfig, r *report) (result, error) {
	ops := vOps(cfg.seed, int(cfg.seconds/time.Millisecond))
	tr := newTracer(1 << 18)
	var (
		n, failed, untracedOps int
		untraced               time.Duration
		gcCycles, allocBytes   uint64
		events                 uint64
		runs                   int
		traced                 = map[int]vCell{}
	)
	start := sampleProc()
	deadline := start.at.Add(cfg.seconds)
	for i, p := range ops {
		if time.Now().After(deadline) {
			break
		}
		n++
		if i%2 == 0 {
			before := sampleProc()
			c, err := vRun(p, vWorkers)
			d := before.to(sampleProc())
			untraced += d.wall
			untracedOps++
			gcCycles += d.gcCycles
			allocBytes += d.allocBytes
			if err != nil || !c.sound() {
				failed++
			}
			continue
		}
		c, err := vTraced(tr, i, p)
		if err != nil || !c.sound() {
			failed++
		}
		events += c.Events
		runs += vReps
		traced[i] = c
	}
	replay := start.to(sampleProc())
	// On a sample of traced cells: the staged replay must reproduce
	// Experiment.Run bit for bit, and the first replication runs once
	// more alone, because allocations per window need a quiet process.
	probe := &allocProbe{}
	checked := 0
	for i := 1; i < n && checked < vSample; i += 2 * max(1, n/(2*vSample)) {
		c, err := vRun(ops[i], vWorkers)
		if err != nil || !reflect.DeepEqual(c, traced[i]) {
			failed++
		}
		checked++
		s := vBind(nil, -1, 0, ops[i])
		sc := s.Sim
		sc.Seed = des.SplitSeed(ops[i].Seed, 0)
		sc.CollectLatencies = true
		if _, err := stagedSim(nil, -1, i, s, sc, probe); err != nil {
			return result{}, err
		}
	}

	spans := tr.snapshot()
	ts := summarizeTrace(spans)
	path, err := writeSpans(traceDir, "validation-sweep", cfg.seed, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.out, "replayed %d cells (%d traced); spans in %s\n", n, ts.byName["op"].Count, path)
	r.set("topology.load_us", ts.byName["topology.load"].meanUs(), "us", "per Family.Build of a cell's network")
	r.set("core.bind_us", ts.byName["core.bind"].meanSelfUs(), "us", "per cell bind, self time (workload and scenario assembly)")
	r.set("analysis.bound_us", ts.byName["analysis.bound"].meanUs(), "us", "per Scenario.Analyze")
	r.set("analysis.backlog_us", ts.byName["analysis.backlog"].meanUs(), "us", "per Scenario.Backlogs in the cell fold")
	simLayer(r, ts, probe, events, runs)
	r.set("sweep.busy_ratio", busyRatio(ts, vWorkers), "ratio", fmt.Sprintf("replication jobs / (%d workers × pool wall)", vWorkers))
	perOp := float64(max(untracedOps, 1))
	r.set("gc.cycles_per_op", float64(gcCycles)/perOp, "count", "GC cycles per untraced cell")
	r.set("alloc_kb_per_op", float64(allocBytes)/1024/perOp, "KB", "heap bytes allocated per untraced cell")
	overhead(r, ts, "op", vWorkers, untraced, untracedOps, replay, "the workload has no HTTP")
	return result{Correct: failed == 0, Attempted: n, Failed: failed}, nil
}

// vTraced runs one cell with a span around every layer call: bind, the
// bounds, each replication's simulator stages on the sweep pool, and the
// fold's backlog check. Seeds match Experiment.Run's substreams.
func vTraced(tr *tracer, op int, p vPoint) (vCell, error) {
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	var s *core.Scenario
	bind := tr.begin("core.bind", root, op)
	s = vBind(tr, bind, op, p)
	tr.end(bind)
	var (
		e2e *analysis.Result
		err error
	)
	if tr.do("analysis.bound", root, op, func() { e2e, err = s.Analyze(s.Sim.Approach) }); err != nil {
		return vCell{}, err
	}
	pool := tr.begin("sweep.pool", root, op)
	sims, err := sweep.RunIndexed(make([]struct{}, vReps), vWorkers, func(j int, _ struct{}) (*core.SimResult, error) {
		job := tr.begin("sweep.job", pool, op)
		defer tr.end(job)
		c := s.Sim
		c.Seed = des.SplitSeed(p.Seed, uint64(j))
		c.CollectLatencies = true
		return stagedSim(tr, job, op, s, c, nil)
	})
	tr.end(pool)
	if err != nil {
		return vCell{}, err
	}
	return vFold(tr, root, op, s, e2e, sims)
}
