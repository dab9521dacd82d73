package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// Experiment R1 — the babbling idiot. The paper's premise is that
// "reliable transmission with bounded delays is possible when the traffic
// is controlled": the per-connection shapers are the control. These tests
// stage a faulty station that releases a periodic message 400× too often
// and show that
//
//   - WITH shapers the fault is contained: every other connection still
//     meets its analytic bound (the excess waits in the babbler's own
//     shaper queue, never reaching the network);
//   - WITHOUT shapers the fault floods the bottleneck and urgent traffic
//     misses its deadline — the uncontrolled network the paper warns
//     about.

const (
	babbler = "nav/attitude" // P1 periodic into the mission computer
	// 400 copies per 20 ms of an 84 B wire frame ≈ 13.4 Mbps > C:
	// saturates the babbler's uplink.
	babbleFactor = 400
)

func TestBabblerContainedByShapers(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = simtime.Second
	cfg.Babbler = babbler
	cfg.BabbleFactor = babbleFactor
	res, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shaped == 0 {
		t.Fatal("babbling traffic was never shaped — fault injection inert")
	}
	// Every connection except the babbler still honours its bound.
	bounds, err := StarScenario(set, cfg).Analyze(analysis.Priority)
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range bounds.Flows {
		if pb.Spec.Msg.Name == babbler {
			continue
		}
		observed := res.Flows[pb.Spec.Msg.Name].Latency.Max()
		if observed > pb.EndToEnd {
			t.Errorf("%s: observed %v exceeds bound %v despite shaping",
				pb.Spec.Msg.Name, observed, pb.EndToEnd)
		}
	}
	// No urgent deadline misses: the fault cannot reach the network.
	for name, f := range res.Flows {
		if f.Msg.Priority == traffic.P0 && f.DeadlineMisses > 0 {
			t.Errorf("%s: %d urgent misses with shapers installed", name, f.DeadlineMisses)
		}
	}
}

func TestBabblerDisruptsUnshapedFCFSNetwork(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.FCFS)
	cfg.Horizon = simtime.Second
	cfg.Babbler = babbler
	cfg.BabbleFactor = babbleFactor
	cfg.BypassShapers = true
	res, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shaped != 0 {
		t.Fatal("bypassed shapers still shaped")
	}
	// The flood shares the babbler's station (nav) uplink and the MC port
	// FCFS queues: other nav traffic and MC-bound urgent traffic must
	// suffer deadline misses.
	misses := 0
	for _, f := range res.Flows {
		if f.Msg.Name != babbler && f.Msg.Priority == traffic.P0 {
			misses += f.DeadlineMisses
		}
	}
	if misses == 0 {
		t.Error("uncontrolled babbler caused no urgent misses — the paper's motivation is absent")
	}
}

func TestBabblerPrioritiesAloneDoNotSaveSameClass(t *testing.T) {
	// Even with strict priorities, an unshaped babbler in P1 destroys
	// other P1 traffic (priorities only isolate *across* classes; shaping
	// isolates *within*). This pins down why the paper needs both
	// mechanisms.
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = simtime.Second
	cfg.Babbler = babbler
	cfg.BabbleFactor = babbleFactor
	cfg.BypassShapers = true
	res, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// P0 overtakes the P1 flood at every multiplexer: urgent still safe.
	for name, f := range res.Flows {
		if f.Msg.Priority == traffic.P0 && f.DeadlineMisses > 0 {
			t.Errorf("%s: urgent misses under priorities (%d) — P0 should overtake a P1 flood",
				name, f.DeadlineMisses)
		}
	}
	// But same-class victims (other P1 into the MC) blow past the bounds
	// that held in TestBabblerContainedByShapers.
	bounds, err := StarScenario(set, cfg).Analyze(analysis.Priority)
	if err != nil {
		t.Fatal(err)
	}
	violated := 0
	for _, pb := range bounds.Flows {
		m := pb.Spec.Msg
		if m.Name == babbler || m.Priority != traffic.P1 || m.Dest != traffic.StationMC {
			continue
		}
		if res.Flows[m.Name].Latency.Max() > pb.EndToEnd {
			violated++
		}
	}
	if violated == 0 {
		t.Error("unshaped P1 flood left same-class bounds intact — shaping would be redundant")
	}
}
