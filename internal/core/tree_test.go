package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// threeSwitchLine places the real-case stations on a line of three
// switches: mission computer + displays front (0), sensors mid (1),
// effectors/engine/generics aft (2).
func threeSwitchLine() *topology.Network {
	n := &topology.Network{
		Name:          "line3",
		Switches:      3,
		Links:         [][2]int{{0, 1}, {1, 2}},
		StationSwitch: map[string]int{},
	}
	for _, st := range traffic.RealCase().Stations() {
		switch st {
		case traffic.StationMC, traffic.StationDisplay:
			n.StationSwitch[st] = 0
		case traffic.StationNav, traffic.StationADC, traffic.StationRadar, traffic.StationEW:
			n.StationSwitch[st] = 1
		default:
			n.StationSwitch[st] = 2
		}
	}
	return n
}

func TestTreeValidate(t *testing.T) {
	stations := traffic.RealCase().Stations()
	good := threeSwitchLine().Tree()
	if err := good.Validate(stations); err != nil {
		t.Fatal(err)
	}
	bad := []*analysis.Tree{
		{Switches: 0},
		{Switches: 2, Links: nil, StationSwitch: good.StationSwitch},              // disconnected
		{Switches: 2, Links: [][2]int{{0, 0}}, StationSwitch: good.StationSwitch}, // self loop
		{Switches: 2, Links: [][2]int{{0, 5}}, StationSwitch: good.StationSwitch}, // out of range
		{Switches: 1, Links: nil, StationSwitch: map[string]int{}},                // stations unplaced
	}
	for i, tr := range bad {
		if err := tr.Validate(stations); err == nil {
			t.Errorf("bad tree %d accepted", i)
		}
	}
}

func TestTreeSwitchPath(t *testing.T) {
	tr := threeSwitchLine().Tree()
	path, err := tr.SwitchPath(traffic.StationEngine, traffic.StationMC) // 2 → 0
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Errorf("path = %v, want %v", path, want)
	}
	same, err := tr.SwitchPath(traffic.StationMC, traffic.StationDisplay)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 1 || same[0] != 0 {
		t.Errorf("co-located path = %v", same)
	}
	if _, err := tr.SwitchPath("ghost", traffic.StationMC); err == nil {
		t.Error("unknown station accepted")
	}
}

func TestThreeSwitchSimRespectsBounds(t *testing.T) {
	set := traffic.RealCase()
	line := threeSwitchLine()
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		cfg := DefaultSimConfig(approach)
		cfg.Horizon = simtime.Second
		bounds, err := analysis.TreeEndToEnd(set, approach, cfg.AnalysisConfig(), line.Tree())
		if err != nil {
			t.Fatal(err)
		}
		sim, err := SimulateNetwork(set, cfg, line)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Dropped != 0 {
			t.Errorf("%v: drops on unbounded queues", approach)
		}
		for _, pb := range bounds.Flows {
			fs := sim.Flows[pb.Spec.Msg.Name]
			if fs.Delivered == 0 {
				t.Errorf("%v %s: never delivered", approach, pb.Spec.Msg.Name)
				continue
			}
			if fs.Latency.Max() > pb.EndToEnd {
				t.Errorf("%v %s: observed %v exceeds tree bound %v",
					approach, pb.Spec.Msg.Name, fs.Latency.Max(), pb.EndToEnd)
			}
		}
	}
}

func TestThreeSwitchTwoHopFloor(t *testing.T) {
	// An engine → MC connection crosses two trunks: its minimum observed
	// latency must include three serializations and three relays... at
	// least the analytic floor.
	set := traffic.RealCase()
	line := threeSwitchLine()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = simtime.Second
	bounds, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg.AnalysisConfig(), line.Tree())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateNetwork(set, cfg, line)
	if err != nil {
		t.Fatal(err)
	}
	pb, ok := bounds.ByName("engine/fadec-state")
	if !ok {
		t.Fatal("connection missing")
	}
	// 4 serializations (uplink + 2 trunks + dest port) and 3 relays.
	if pb.Floor != 4*simtime.Duration(67200)+3*cfg.TTechno {
		t.Errorf("floor = %v", pb.Floor)
	}
	if min := sim.Flows["engine/fadec-state"].Latency.Min(); min < pb.Floor {
		t.Errorf("observed min %v below analytic floor %v", min, pb.Floor)
	}
}

func TestTreeErrors(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	if _, err := SimulateNetwork(set, cfg, nil); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg.AnalysisConfig(), nil); err == nil {
		t.Error("analysis accepted nil tree")
	}
	broken := &topology.Network{Switches: 2, StationSwitch: map[string]int{}}
	if _, err := SimulateNetwork(set, cfg, broken); err == nil {
		t.Error("disconnected tree accepted")
	}
}

func TestTreeStarTopology(t *testing.T) {
	// A 4-switch star (hub switch 0): every cross pair traverses ≤ 2
	// trunks; priority keeps urgent under 3 ms even here.
	set := traffic.RealCase()
	hub := &topology.Network{
		Name:          "hub4",
		Switches:      4,
		Links:         [][2]int{{0, 1}, {0, 2}, {0, 3}},
		StationSwitch: map[string]int{},
	}
	for i, st := range set.Stations() {
		if st == traffic.StationMC {
			hub.StationSwitch[st] = 0
		} else {
			hub.StationSwitch[st] = 1 + i%3
		}
	}
	res, err := analysis.TreeEndToEnd(set, analysis.Priority, analysis.DefaultConfig(), hub.Tree())
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range res.Flows {
		if pb.Spec.Msg.Priority == traffic.P0 && pb.Spec.Msg.Dest == traffic.StationMC && !pb.Met {
			t.Errorf("%s: urgent bound %v misses 3ms on the star", pb.Spec.Msg.Name, pb.EndToEnd)
		}
	}
	// Simulation stays under bounds on the star too.
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 500 * simtime.Millisecond
	sim, err := SimulateNetwork(set, cfg, hub)
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range res.Flows {
		if sim.Flows[pb.Spec.Msg.Name].Latency.Max() > pb.EndToEnd {
			t.Errorf("%s: observed %v exceeds star bound %v",
				pb.Spec.Msg.Name, sim.Flows[pb.Spec.Msg.Name].Latency.Max(), pb.EndToEnd)
		}
	}
}
