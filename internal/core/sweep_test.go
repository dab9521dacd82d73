package core

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// The engine's headline contract: for a fixed root seed, every sweep
// result is bit-identical at any worker count.
func TestRunGridDeterministicAcrossWorkers(t *testing.T) {
	grid := Grid([]simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps}, []int{0, 4})
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 50 * simtime.Millisecond
	// Randomized sources, so replications actually differ and the
	// per-replication substream seeding is what's under test.
	cfg.Mode = traffic.RandomGaps
	cfg.MeanSlack = DefaultMeanSlack
	cfg.AlignPhases = false

	run := func(workers int) []GridCell {
		cells, err := RunGrid(grid, cfg, SweepOptions{Workers: workers, Reps: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	serial := run(1)
	if len(serial) != 4 {
		t.Fatalf("%d cells", len(serial))
	}
	if !reflect.DeepEqual(serial, run(8)) {
		t.Error("grid results differ between workers=1 and workers=8")
	}
	for _, c := range serial {
		if !c.Sound() {
			t.Errorf("%v/%d RTs: %d connections exceed their bound (observed %v, bound %v)",
				c.Point.Rate, c.Point.ExtraRTs, c.Unsound, c.ObservedWorst, c.BoundWorst)
		}
		if c.Delivered == 0 {
			t.Errorf("%v/%d RTs: nothing delivered", c.Point.Rate, c.Point.ExtraRTs)
		}
		if c.ObservedP99 == 0 || c.ObservedP99 > c.ObservedWorst {
			t.Errorf("%v/%d RTs: p99 %v out of range (worst %v)",
				c.Point.Rate, c.Point.ExtraRTs, c.ObservedP99, c.ObservedWorst)
		}
	}
}

func TestRunValidationRepsDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 50 * simtime.Millisecond
	cfg.Mode = traffic.RandomGaps
	cfg.MeanSlack = DefaultMeanSlack
	cfg.AlignPhases = false
	set := traffic.RealCase()

	run := func(workers int) *Validation {
		v, err := StarScenario(set, cfg).Validate(SweepOptions{Workers: workers, Reps: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := run(1), run(8)
	if a.Reps != 4 || b.Reps != 4 {
		t.Fatalf("reps %d/%d", a.Reps, b.Reps)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("validation rows differ between workers=1 and workers=8")
	}
	for _, r := range a.Rows {
		if !r.Sound() {
			t.Errorf("%s: observed %v exceeds bound %v over 4 replications", r.Name, r.Observed, r.Bound)
		}
		if r.Latencies.N() != r.Delivered {
			t.Errorf("%s: histogram holds %d of %d deliveries", r.Name, r.Latencies.N(), r.Delivered)
		}
		if r.Delivered > 0 && r.Latencies.Quantile(1) != r.Observed {
			t.Errorf("%s: histogram max %v vs observed %v", r.Name, r.Latencies.Quantile(1), r.Observed)
		}
	}
}

func TestRunRateSweepParallelMatchesSerial(t *testing.T) {
	rates := []simtime.Rate{10 * simtime.Mbps, 25 * simtime.Mbps, 50 * simtime.Mbps,
		100 * simtime.Mbps, simtime.Gbps}
	serial, err := RunRateSweep(traffic.RealCase(), rates, analysis.DefaultConfig(), Serial(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunRateSweep(traffic.RealCase(), rates, analysis.DefaultConfig(), SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("rate sweep differs between serial and 8 workers")
	}
}

func TestRunLoadSweepParallelMatchesSerial(t *testing.T) {
	loads := []int{0, 2, 4, 8, 16}
	serial, err := RunLoadSweep(loads, analysis.DefaultConfig(), Serial(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunLoadSweep(loads, analysis.DefaultConfig(), SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("load sweep differs between serial and 8 workers")
	}
}

func TestRunBaseline1553Replicated(t *testing.T) {
	set := traffic.RealCase()
	run := func(workers int) *Baseline1553 {
		b, err := RunBaseline1553(set, traffic.StationMC, 200*simtime.Millisecond,
			SweepOptions{Workers: workers, Reps: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(1), run(4)
	if a.Reps != 3 {
		t.Fatalf("reps %d", a.Reps)
	}
	total := 0
	for name, f := range a.Flows {
		fb := b.Flows[name]
		if f.Observed.N() != fb.Observed.N() || f.Observed.Max() != fb.Observed.Max() ||
			f.Observed.Mean() != fb.Observed.Mean() {
			t.Errorf("%s: replicated baseline differs across worker counts", name)
		}
		if f.Observed.Max() > f.WorstCase {
			t.Errorf("%s: observed %v exceeds analytic %v", name, f.Observed.Max(), f.WorstCase)
		}
		total += f.Observed.N()
	}
	if total == 0 {
		t.Error("replicated baseline observed nothing")
	}
	if a.Utilization != b.Utilization || a.Overruns != b.Overruns {
		t.Error("utilization/overruns differ across worker counts")
	}
	// Replications are randomized, so they must actually differ: a single
	// critical-instant run would observe every connection at identical
	// per-rep counts; with random phases over a 200 ms horizon at least
	// one slow connection misses a replication entirely.
	single, err := RunBaseline1553(set, traffic.StationMC, 200*simtime.Millisecond, Serial(5))
	if err != nil {
		t.Fatal(err)
	}
	identical := true
	for name, f := range a.Flows {
		if f.Observed.N() != 3*single.Flows[name].Observed.N() {
			identical = false
			break
		}
	}
	if identical {
		t.Error("3 replications look like 3 copies of the critical instant — randomization missing")
	}
}

func TestGridCrossProduct(t *testing.T) {
	g := Grid([]simtime.Rate{1, 2}, []int{0, 1, 2})
	if len(g) != 6 {
		t.Fatalf("%d points", len(g))
	}
	want := []GridPoint{{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("grid order %v", g)
	}
}

func TestRunGridInfeasibleRate(t *testing.T) {
	grid := Grid([]simtime.Rate{100 * simtime.Kbps}, []int{0})
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 10 * simtime.Millisecond
	if _, err := RunGrid(grid, cfg, Serial(1)); err == nil {
		t.Error("unstable rate accepted")
	}
}
