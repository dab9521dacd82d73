package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

func TestSimulateDeliversEverything(t *testing.T) {
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		cfg := DefaultSimConfig(approach)
		cfg.Horizon = simtime.Second
		res, err := Simulate(traffic.RealCase(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped != 0 {
			t.Errorf("%v: %d drops with unbounded queues", approach, res.Dropped)
		}
		for name, f := range res.Flows {
			if f.Released == 0 {
				t.Errorf("%v %s: never released", approach, name)
			}
			// Everything released early enough must arrive within the
			// horizon; allow the tail still in flight.
			if f.Delivered == 0 {
				t.Errorf("%v %s: never delivered (released %d)", approach, name, f.Released)
			}
			if f.Delivered > f.Released {
				t.Errorf("%v %s: delivered %d > released %d", approach, name, f.Delivered, f.Released)
			}
		}
		if res.Events == 0 || res.TotalDelivered() == 0 {
			t.Errorf("%v: empty simulation", approach)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 500 * simtime.Millisecond
	a, err := Simulate(traffic.RealCase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(traffic.RealCase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	for name, fa := range a.Flows {
		fb := b.Flows[name]
		if fa.Latency.Max() != fb.Latency.Max() || fa.Delivered != fb.Delivered {
			t.Errorf("%s: runs differ (%v/%d vs %v/%d)", name,
				fa.Latency.Max(), fa.Delivered, fb.Latency.Max(), fb.Delivered)
		}
	}
}

// TestSimulationRespectsBounds is experiment S1: for both approaches the
// worst observed latency of every connection must stay below the
// compositional end-to-end bound.
func TestSimulationRespectsBounds(t *testing.T) {
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		cfg := DefaultSimConfig(approach)
		v, err := StarScenario(traffic.RealCase(), cfg).Validate(Serial(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range v.Rows {
			if !r.Sound() {
				t.Errorf("%v %s: observed %v exceeds bound %v",
					approach, r.Name, r.Observed, r.Bound)
			}
			if r.Delivered == 0 {
				t.Errorf("%v %s: no deliveries behind the observation", approach, r.Name)
			}
		}
		if !v.AllSound() {
			t.Errorf("%v: AllSound false", approach)
		}
	}
}

// TestSimulationShowsPriorityBenefit verifies the paper's claims hold in
// simulation, not just analysis: under FCFS some urgent deliveries miss
// 3 ms at the critical instant; under priorities none do.
func TestSimulationShowsPriorityBenefit(t *testing.T) {
	fcfsCfg := DefaultSimConfig(analysis.FCFS)
	fcfs, err := Simulate(traffic.RealCase(), fcfsCfg)
	if err != nil {
		t.Fatal(err)
	}
	prioCfg := DefaultSimConfig(analysis.Priority)
	prio, err := Simulate(traffic.RealCase(), prioCfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfsMisses, prioMisses := 0, 0
	for name, f := range fcfs.Flows {
		if f.Msg.Priority == traffic.P0 {
			fcfsMisses += f.DeadlineMisses
			prioMisses += prio.Flows[name].DeadlineMisses
		}
	}
	if fcfsMisses == 0 {
		t.Error("FCFS simulation never missed an urgent deadline at the critical instant")
	}
	if prioMisses != 0 {
		t.Errorf("priority simulation missed %d urgent deadlines", prioMisses)
	}
	if prio.ClassWorst[traffic.P0] >= fcfs.ClassWorst[traffic.P0] {
		t.Errorf("priority worst P0 %v not below FCFS worst P0 %v",
			prio.ClassWorst[traffic.P0], fcfs.ClassWorst[traffic.P0])
	}
}

func TestSimulateBoundedQueuesDrop(t *testing.T) {
	cfg := DefaultSimConfig(analysis.FCFS)
	cfg.Horizon = 200 * simtime.Millisecond
	cfg.QueueCapacity = simtime.Bytes(256) // absurdly small switch buffers
	res, err := Simulate(traffic.RealCase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("no drops with 256 B buffers at the critical instant")
	}
}

func TestSimulateRandomGaps(t *testing.T) {
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Mode = traffic.RandomGaps
	cfg.AlignPhases = false
	cfg.Horizon = simtime.Second
	res, err := Simulate(traffic.RealCase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelivered() == 0 {
		t.Error("nothing delivered under random gaps")
	}
	// Under randomized (non-critical) operation the observed worst P0 must
	// still be under the analytic bound.
	e2e, err := StarScenario(traffic.RealCase(), cfg).Analyze(analysis.Priority)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClassWorst[traffic.P0] > e2e.ClassWorst[traffic.P0] {
		t.Errorf("random run exceeded bound: %v > %v",
			res.ClassWorst[traffic.P0], e2e.ClassWorst[traffic.P0])
	}
}

func TestSimConfigValidate(t *testing.T) {
	bad := []SimConfig{
		{LinkRate: 0, Horizon: 1},
		{LinkRate: 1, TTechno: -1, Horizon: 1},
		{LinkRate: 1, Horizon: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
		if _, err := Simulate(traffic.RealCase(), cfg); err == nil {
			t.Errorf("Simulate accepted %+v", cfg)
		}
	}
	invalid := &traffic.Set{Messages: []*traffic.Message{{Name: ""}}}
	if _, err := Simulate(invalid, DefaultSimConfig(analysis.FCFS)); err == nil {
		t.Error("invalid set accepted")
	}
}

func TestWorstLatencyAccessor(t *testing.T) {
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 100 * simtime.Millisecond
	res, err := Simulate(traffic.RealCase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstLatency("nav/attitude") == 0 {
		t.Error("nav/attitude has no observed latency")
	}
	if res.WorstLatency("ghost") != 0 {
		t.Error("ghost connection has a latency")
	}
}
