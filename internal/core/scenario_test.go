package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// heteroFixture is the reference dual-redundant heterogeneous-rate
// scenario, committed under internal/topology/testdata and pinned by that
// package's golden round-trip test.
const heteroFixture = "../topology/testdata/dual_hetero.json"

func loadHetero(t testing.TB) *Scenario {
	t.Helper()
	s, err := LoadScenario(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStarScenarioMatchesSimulate pins the wrapper contract: a Scenario
// assembled from a bare workload on the star must reproduce Simulate to
// the byte, for both pinned golden configurations.
func TestStarScenarioMatchesSimulate(t *testing.T) {
	set := traffic.RealCase()
	for name, cfg := range goldenConfigs() {
		want, err := Simulate(set, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := StarScenario(set, cfg).Simulate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if goldenReport(set, got) != goldenReport(set, want) {
			t.Errorf("%s: StarScenario.Simulate diverges from Simulate:\n%s",
				name, firstDiff(goldenReport(set, want), goldenReport(set, got)))
		}
	}
}

// TestScenarioBindsSimSection checks that the declarative sim section
// reaches the bound SimConfig.
func TestScenarioBindsSimSection(t *testing.T) {
	s := loadHetero(t)
	if s.Sim.Approach != analysis.Priority {
		t.Errorf("approach = %v", s.Sim.Approach)
	}
	if s.Sim.Horizon != 100*simtime.Millisecond {
		t.Errorf("horizon = %v", s.Sim.Horizon)
	}
	if s.Sim.Seed != 7 {
		t.Errorf("seed = %d", s.Sim.Seed)
	}
	if !s.Sim.AlignPhases || s.Sim.Mode != traffic.Greedy {
		t.Errorf("source regime = align %v mode %v", s.Sim.AlignPhases, s.Sim.Mode)
	}
	if s.Sim.LinkRate != 10*simtime.Mbps || s.Sim.TTechno != 140*simtime.Microsecond {
		t.Errorf("analysis params = %v/%v", s.Sim.LinkRate, s.Sim.TTechno)
	}
	if s.BC != "mc" {
		t.Errorf("bus controller = %q", s.BC)
	}
}

// TestHeteroScenarioSound is the acceptance check of the tentpole: on a
// custom heterogeneous-rate dual-redundant network, every simulated
// latency respects its tree-composed bound, redundant-plane accounting
// fires, and the per-link overrides demonstrably tighten the bounds
// relative to the uniform network.
func TestHeteroScenarioSound(t *testing.T) {
	s := loadHetero(t)
	bounds, err := s.Analyze(s.Sim.Approach)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range bounds.Flows {
		name := pb.Spec.Msg.Name
		if obs := res.Flows[name].Latency.Max(); obs > pb.EndToEnd {
			t.Errorf("%s: observed %v exceeds bound %v", name, obs, pb.EndToEnd)
		}
		if res.Flows[name].Delivered == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
	}
	if res.Redundant == 0 {
		t.Error("dual-redundant network discarded no redundant copies")
	}
	if len(res.PlaneDelivered) != 2 {
		t.Errorf("PlaneDelivered = %v", res.PlaneDelivered)
	}

	// The 100 Mbps trunk and mc access link must tighten the bounds
	// against the same architecture at the uniform 10 Mbps default.
	uniform := &topology.Network{
		Name:          s.Net.Name,
		Switches:      s.Net.Switches,
		Links:         s.Net.Links,
		StationSwitch: s.Net.StationSwitch,
		Planes:        s.Net.Planes,
	}
	ub, err := analysis.TreeEndToEnd(s.Set, s.Sim.Approach, s.Analysis(), uniform.Tree())
	if err != nil {
		t.Fatal(err)
	}
	tighter := false
	for i, pb := range bounds.Flows {
		if pb.EndToEnd > ub.Flows[i].EndToEnd {
			t.Errorf("%s: hetero bound %v looser than uniform %v",
				pb.Spec.Msg.Name, pb.EndToEnd, ub.Flows[i].EndToEnd)
		}
		if pb.EndToEnd < ub.Flows[i].EndToEnd {
			tighter = true
		}
	}
	if !tighter {
		t.Error("per-link overrides tightened no bound")
	}
}

// TestScenarioValidateDeterministic pins the acceptance contract on the
// custom architecture: Validate output is identical at any worker count,
// and every row is sound.
func TestScenarioValidateDeterministic(t *testing.T) {
	s := loadHetero(t)
	s.Sim.Horizon = 50 * simtime.Millisecond
	serial, err := s.Validate(SweepOptions{Workers: 1, Reps: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.Validate(SweepOptions{Workers: 8, Reps: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.AllSound() {
		t.Error("custom-architecture validation unsound")
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		a, b := serial.Rows[i], par.Rows[i]
		if a.Observed != b.Observed || a.Bound != b.Bound || a.Delivered != b.Delivered {
			t.Errorf("row %s differs across worker counts: %+v vs %+v", a.Name, a, b)
		}
		if a.Latencies.N() != b.Latencies.N() {
			t.Errorf("row %s histogram differs: %d vs %d", a.Name, a.Latencies.N(), b.Latencies.N())
		}
	}
}

// TestScenarioSweep checks the per-scenario rate sweep: higher default
// rates keep soundness, and the per-link overrides keep their absolute
// values (the cells stay heterogeneous).
func TestScenarioSweep(t *testing.T) {
	s := loadHetero(t)
	s.Sim.Horizon = 30 * simtime.Millisecond
	cells, err := s.Sweep([]simtime.Rate{10 * simtime.Mbps, 100 * simtime.Mbps}, Serial(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if !c.Sound() {
			t.Errorf("rate %v unsound", c.Point.Rate)
		}
		if c.Delivered == 0 {
			t.Errorf("rate %v delivered nothing", c.Point.Rate)
		}
	}
	if cells[1].BoundWorst >= cells[0].BoundWorst {
		t.Errorf("100Mbps bound %v not tighter than 10Mbps %v",
			cells[1].BoundWorst, cells[0].BoundWorst)
	}
}

// TestScenarioBaseline runs the declarative scenario on the 1553 bus.
func TestScenarioBaseline(t *testing.T) {
	s := loadHetero(t)
	b, err := s.Baseline(Serial(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Flows) != len(s.Set.Messages) {
		t.Errorf("%d baseline flows for %d messages", len(b.Flows), len(s.Set.Messages))
	}
	bc, err := s.BusController()
	if err != nil || bc != "mc" {
		t.Errorf("bus controller = %q, %v", bc, err)
	}
}

// TestExperimentGeneric drives the generic runner directly over a tiny
// custom parameter space — the extension point every future workload or
// topology family plugs into.
func TestExperimentGeneric(t *testing.T) {
	s := loadHetero(t)
	type point struct{ planes int }
	exp := Experiment[point, int]{
		Points: []point{{1}, {2}},
		Bind: func(p point) (*Scenario, error) {
			c := *s
			c.Sim.Horizon = 20 * simtime.Millisecond
			c.Net = topology.Redundify(s.Net, p.planes)
			return &c, nil
		},
		Cell: func(p point, sc *Scenario, bounds *analysis.Result, sims []*SimResult) (int, error) {
			return sims[0].Redundant, nil
		},
	}
	redundant, err := exp.Run(Serial(9))
	if err != nil {
		t.Fatal(err)
	}
	if redundant[0] != 0 {
		t.Errorf("single-plane run discarded %d redundant copies", redundant[0])
	}
	if redundant[1] == 0 {
		t.Error("dual-plane run discarded no redundant copies")
	}
}

// TestRandomGapsDefaultsMeanSlack guards the no-silent-fallback rule: a
// scenario requesting random-gaps without a mean slack must actually
// randomize (MeanSlack = 0 would degenerate to greedy spacing).
func TestRandomGapsDefaultsMeanSlack(t *testing.T) {
	cfg := topology.Default()
	cfg.Sim = &topology.SimJSON{Mode: "random-gaps"}
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sim.Mode != traffic.RandomGaps {
		t.Errorf("mode = %v", s.Sim.Mode)
	}
	if s.Sim.MeanSlack != DefaultMeanSlack {
		t.Errorf("mean slack = %v, want the catalog-derived default %v",
			s.Sim.MeanSlack, DefaultMeanSlack)
	}
	// An explicit slack wins.
	cfg.Sim.MeanSlackUs = 250
	s, err = NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sim.MeanSlack != 250*simtime.Microsecond {
		t.Errorf("explicit mean slack = %v", s.Sim.MeanSlack)
	}
}

// TestNewScenarioRejectsBadConfigs exercises bind-time validation.
func TestNewScenarioRejectsBadConfigs(t *testing.T) {
	// A network section that does not place the workload's stations.
	cfg := topology.Default()
	cfg.Network = topology.Star([]string{"only-one"})
	if _, err := NewScenario(cfg); err == nil {
		t.Error("network missing workload stations accepted")
	}
	// A sim section with an unknown approach.
	cfg2 := topology.Default()
	cfg2.Sim = &topology.SimJSON{Approach: "weird"}
	if _, err := NewScenario(cfg2); err == nil {
		t.Error("bad approach accepted")
	}
}
