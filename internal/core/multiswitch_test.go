package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// fuselageCascade is the two-switch cascade of the real-case stations,
// split front/back by fuselage section.
func fuselageCascade(set *traffic.Set) *topology.Network {
	return topology.Cascade(set.Stations(), topology.FuselageSplit)
}

func TestTwoSwitchSimDelivers(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = simtime.Second
	res, err := SimulateNetwork(set, cfg, fuselageCascade(set))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Errorf("%d drops on unbounded queues", res.Dropped)
	}
	for name, f := range res.Flows {
		if f.Delivered == 0 {
			t.Errorf("%s: never delivered", name)
		}
	}
	// Cross-switch connections must show at least two serializations plus
	// two relaying latencies in their floor.
	ew := res.Flows["ew/threat-warning"] // ew (switch 1) → MC (switch 0)
	minCross := 2*simtime.Duration(67200) + 2*cfg.TTechno
	if ew.Latency.Min() < minCross {
		t.Errorf("cross-switch min latency %v below physical floor %v", ew.Latency.Min(), minCross)
	}
	// Local connections (nav → MC, both switch 0) stay single-switch fast.
	nav := res.Flows["nav/attitude"]
	if nav.Latency.Min() >= ew.Latency.Min() {
		t.Errorf("local min %v not below cross-switch min %v", nav.Latency.Min(), ew.Latency.Min())
	}
}

func TestTwoSwitchRespectsBounds(t *testing.T) {
	set := traffic.RealCase()
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		s := &Scenario{Set: set, Net: fuselageCascade(set), Sim: DefaultSimConfig(approach)}
		bounds, err := s.Analyze(approach)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		for _, pb := range bounds.Flows {
			observed := res.Flows[pb.Spec.Msg.Name].Latency.Max()
			if observed > pb.EndToEnd {
				t.Errorf("%v %s: observed %v exceeds two-switch bound %v",
					approach, pb.Spec.Msg.Name, observed, pb.EndToEnd)
			}
		}
	}
}

func TestTwoSwitchPriorityStillMeetsUrgent(t *testing.T) {
	set := traffic.RealCase()
	cfg := analysis.DefaultConfig()
	tree := fuselageCascade(set).Tree()
	res, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg, tree)
	if err != nil {
		t.Fatal(err)
	}
	// The headline survives the cascaded architecture: every urgent bound
	// below 3 ms even across the trunk.
	for _, pb := range res.Flows {
		if pb.Spec.Msg.Priority == traffic.P0 && !pb.Met {
			t.Errorf("%s: two-switch priority bound %v misses 3ms", pb.Spec.Msg.Name, pb.EndToEnd)
		}
	}
	// And FCFS remains broken.
	fcfs, err := analysis.TreeEndToEnd(set, analysis.FCFS, cfg, tree)
	if err != nil {
		t.Fatal(err)
	}
	if fcfs.Violations == 0 {
		t.Error("two-switch FCFS has no violations — implausible")
	}
}

func TestTwoSwitchCrossCostsMore(t *testing.T) {
	set := traffic.RealCase()
	cfg := analysis.DefaultConfig()
	two, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg, fuselageCascade(set).Tree())
	if err != nil {
		t.Fatal(err)
	}
	one, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg, analysis.SingleSwitchTree(set.Stations()))
	if err != nil {
		t.Fatal(err)
	}
	for i, pb := range two.Flows {
		crosses := topology.FuselageSplit(pb.Spec.Msg.Source) != topology.FuselageSplit(pb.Spec.Msg.Dest)
		if crosses && pb.EndToEnd <= one.Flows[i].EndToEnd {
			t.Errorf("%s: cross-switch bound %v not above single-switch %v",
				pb.Spec.Msg.Name, pb.EndToEnd, one.Flows[i].EndToEnd)
		}
		if pb.Floor <= 0 || pb.Jitter < 0 {
			t.Errorf("%s: bad floor/jitter %v/%v", pb.Spec.Msg.Name, pb.Floor, pb.Jitter)
		}
	}
}

func TestTwoSwitchErrors(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	bad := topology.Cascade(set.Stations(), func(string) int { return 2 })
	if _, err := SimulateNetwork(set, cfg, bad); err == nil {
		t.Error("out-of-range assignment accepted")
	}
	if _, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg.AnalysisConfig(), bad.Tree()); err == nil {
		t.Error("analysis accepted out-of-range assignment")
	}
	if _, err := SimulateNetwork(set, SimConfig{}, fuselageCascade(set)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestTwoSwitchDeterministic(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.FCFS)
	cfg.Horizon = 300 * simtime.Millisecond
	a, err := SimulateNetwork(set, cfg, fuselageCascade(set))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateNetwork(set, cfg, fuselageCascade(set))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Errorf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	for name := range a.Flows {
		if a.Flows[name].Latency.Max() != b.Flows[name].Latency.Max() {
			t.Errorf("%s: runs differ", name)
		}
	}
}
