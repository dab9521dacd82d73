package repro

import (
	"fmt"
	"testing"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

func TestFacadeRealCase(t *testing.T) {
	set := RealCase()
	if len(set.Messages) != 94 {
		t.Errorf("real case has %d connections, want 94", len(set.Messages))
	}
	if got := len(RealCaseWith(0).Messages); got != 38 {
		t.Errorf("core catalog has %d connections, want 38", got)
	}
	if Classify(Sporadic, 3*simtime.Millisecond) != P0 {
		t.Error("Classify broken through the façade")
	}
	if Classify(Periodic, simtime.Second) != P1 {
		t.Error("periodic classification broken")
	}
}

func TestFacadeAnalysisRoundTrip(t *testing.T) {
	set := RealCase()
	cfg := DefaultConfig()
	fcfs, err := SingleHop(set, FCFS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prio, err := TreeEndToEnd(set, PriorityHandling, cfg, StarNetwork(set.Stations()).Tree())
	if err != nil {
		t.Fatal(err)
	}
	if fcfs.Violations == 0 {
		t.Error("façade FCFS analysis lost the violations")
	}
	if prio.ClassWorst[P0] >= 3*simtime.Millisecond {
		t.Errorf("façade priority bound %v", prio.ClassWorst[P0])
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := DefaultSimConfig(PriorityHandling)
	cfg.Horizon = 100 * simtime.Millisecond
	res, err := Simulate(RealCase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelivered() == 0 {
		t.Error("façade simulation delivered nothing")
	}
}

func TestFacadeExperiments(t *testing.T) {
	fig, err := RunFigure1(RealCase(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fig.FCFS == nil || fig.Priority == nil {
		t.Fatal("Figure1 series missing")
	}
	base, err := RunBaseline1553(RealCase(), traffic.StationMC, 200*simtime.Millisecond, Serial(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Utilization <= 0 {
		t.Error("baseline utilization zero")
	}
	cfg := DefaultSimConfig(FCFS)
	cfg.Horizon = 200 * simtime.Millisecond
	v, err := StarScenario(RealCase(), cfg).Validate(Serial(1))
	if err != nil {
		t.Fatal(err)
	}
	if !v.AllSound() {
		t.Error("validation unsound through the façade")
	}
}

// ExampleSingleHop demonstrates the paper's headline comparison at its
// parameters (10 Mbps, t_techno = 140 µs).
func ExampleSingleHop() {
	set := RealCase()
	cfg := DefaultConfig()

	fcfs, _ := SingleHop(set, FCFS, cfg)
	prio, _ := SingleHop(set, PriorityHandling, cfg)

	fmt.Printf("FCFS violations: %d\n", fcfs.Violations)
	fmt.Printf("priority violations: %d\n", prio.Violations)
	fmt.Printf("urgent class bound: FCFS %v, priority %v (deadline 3ms)\n",
		fcfs.ClassWorst[P0], prio.ClassWorst[P0])
	// Output:
	// FCFS violations: 10
	// priority violations: 0
	// urgent class bound: FCFS 4.938ms, priority 896.8µs (deadline 3ms)
}

// TestFacadeScenario drives the primary API end to end through the public
// façade: load the committed heterogeneous dual-redundant scenario, then
// analyze, simulate and validate it — results must be deterministic across
// independent loads (the acceptance contract of the declarative format).
func TestFacadeScenario(t *testing.T) {
	const fixture = "internal/topology/testdata/dual_hetero.json"
	s, err := LoadScenario(fixture)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := s.Analyze(PriorityHandling)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range bounds.Flows {
		name := pb.Spec.Msg.Name
		if obs := res.WorstLatency(name); obs > pb.EndToEnd {
			t.Errorf("%s: observed %v exceeds bound %v", name, obs, pb.EndToEnd)
		}
	}
	if res.Redundant == 0 {
		t.Error("dual-redundant scenario discarded no redundant copies")
	}

	// A second, independent load must reproduce the run exactly.
	s2, err := LoadScenario(fixture)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != res2.Events || res.TotalDelivered() != res2.TotalDelivered() {
		t.Errorf("independent loads diverge: %d/%d events, %d/%d deliveries",
			res.Events, res2.Events, res.TotalDelivered(), res2.TotalDelivered())
	}
	for name, f := range res.Flows {
		if g := res2.Flows[name]; f.Latency.Max() != g.Latency.Max() || f.Delivered != g.Delivered {
			t.Errorf("%s: runs diverge", name)
		}
	}

	v, err := s.Validate(Serial(3))
	if err != nil {
		t.Fatal(err)
	}
	if !v.AllSound() {
		t.Error("scenario validation unsound")
	}
}

// ExampleClassify shows the paper's deadline-driven classification.
func ExampleClassify() {
	fmt.Println(Classify(Sporadic, 3*simtime.Millisecond))
	fmt.Println(Classify(Periodic, 40*simtime.Millisecond))
	fmt.Println(Classify(Sporadic, 80*simtime.Millisecond))
	fmt.Println(Classify(Sporadic, 640*simtime.Millisecond))
	// Output:
	// P0
	// P1
	// P2
	// P3
}

// ExampleSimulate runs the deterministic network simulation at the
// critical instant and reports the worst observed urgent latency.
func ExampleSimulate() {
	cfg := DefaultSimConfig(PriorityHandling)
	cfg.Horizon = 500 * simtime.Millisecond
	res, _ := Simulate(RealCase(), cfg)
	fmt.Printf("worst observed P0 latency: %v (bound 896.8µs + source stage)\n",
		res.ClassWorst[P0])
	fmt.Printf("drops: %d\n", res.Dropped)
	// Output:
	// worst observed P0 latency: 927.2µs (bound 896.8µs + source stage)
	// drops: 0
}
