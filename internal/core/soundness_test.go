package core

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// dumpScenario logs a failing harness scenario as a replayable scenario
// file: paste the JSON into `rtether validate -config -` to reproduce
// the violation outside the test. A nil network dumps the default star.
func dumpScenario(t *testing.T, name string, set *traffic.Set, sim SimConfig, net *topology.Network) {
	t.Helper()
	cfg, err := DumpConfig(name, set, sim, net)
	if err != nil {
		t.Logf("failing scenario has no declarative form: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := cfg.Save(&buf); err != nil {
		t.Logf("failing scenario does not marshal: %v", err)
		return
	}
	t.Logf("replay with: rtether validate -config - <<'EOF'\n%sEOF", buf.String())
}

// TestRandomizedSoundness is the S3 harness: for randomly generated valid
// workloads — arbitrary star-biased topologies, mixed kinds, paper-envelope
// parameters — the simulated worst case must respect the compositional
// bound under BOTH approaches. This is the strongest property in the
// repository: it asserts the analysis is sound for any workload, not just
// the curated catalog.
func TestRandomizedSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized harness skipped in -short")
	}
	params := traffic.DefaultRandomParams()
	for seed := uint64(1); seed <= 12; seed++ {
		set, err := traffic.Random(seed, params)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
			cfg := DefaultSimConfig(approach)
			cfg.Seed = seed
			cfg.Horizon = simtime.Second
			bounds, err := StarScenario(set, cfg).Analyze(approach)
			if err != nil {
				t.Fatalf("seed %d %v: analysis: %v", seed, approach, err)
			}
			sim, err := Simulate(set, cfg)
			if err != nil {
				t.Fatalf("seed %d %v: sim: %v", seed, approach, err)
			}
			violated := false
			for _, pb := range bounds.Flows {
				observed := sim.Flows[pb.Spec.Msg.Name].Latency.Max()
				if observed > pb.EndToEnd {
					violated = true
					t.Errorf("seed %d %v %s: observed %v exceeds bound %v",
						seed, approach, pb.Spec.Msg.Name, observed, pb.EndToEnd)
				}
			}
			if violated {
				dumpScenario(t, "s3-star", set, cfg, nil)
			}
		}
	}
}

// TestRandomizedSoundnessTwoSwitch extends S3 to the cascaded topology
// with a random-ish split (hub plus the even stations on switch 0).
func TestRandomizedSoundnessTwoSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized harness skipped in -short")
	}
	split := func(station string) int {
		if station == "hub" || station == "es02" || station == "es04" {
			return 0
		}
		return 1
	}
	params := traffic.DefaultRandomParams()
	for seed := uint64(20); seed <= 26; seed++ {
		set, err := traffic.Random(seed, params)
		if err != nil {
			t.Fatal(err)
		}
		cascade := topology.Cascade(set.Stations(), split)
		cfg := DefaultSimConfig(analysis.Priority)
		cfg.Seed = seed
		cfg.Horizon = simtime.Second
		bounds, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg.AnalysisConfig(), cascade.Tree())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sim, err := SimulateNetwork(set, cfg, cascade)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		violated := false
		for _, pb := range bounds.Flows {
			observed := sim.Flows[pb.Spec.Msg.Name].Latency.Max()
			if observed > pb.EndToEnd {
				violated = true
				t.Errorf("seed %d %s: observed %v exceeds two-switch bound %v",
					seed, pb.Spec.Msg.Name, observed, pb.EndToEnd)
			}
		}
		if violated {
			dumpScenario(t, "s3-twoswitch", set, cfg, cascade)
		}
	}
}

// TestRandomizedSoundnessChain extends S3 to the daisy-chain backbone:
// for random workloads spread over a three-switch line, the simulated
// worst case must respect the tree-composed bound.
func TestRandomizedSoundnessChain(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized harness skipped in -short")
	}
	params := traffic.DefaultRandomParams()
	for seed := uint64(60); seed <= 66; seed++ {
		set, err := traffic.Random(seed, params)
		if err != nil {
			t.Fatal(err)
		}
		chain := topology.Chain(set.Stations(), 3)
		cfg := DefaultSimConfig(analysis.Priority)
		cfg.Seed = seed
		cfg.Horizon = simtime.Second
		bounds, err := analysis.TreeEndToEnd(set, analysis.Priority, cfg.AnalysisConfig(), chain.Tree())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sim, err := SimulateNetwork(set, cfg, chain)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		violated := false
		for _, pb := range bounds.Flows {
			observed := sim.Flows[pb.Spec.Msg.Name].Latency.Max()
			if observed > pb.EndToEnd {
				violated = true
				t.Errorf("seed %d %s: observed %v exceeds chain bound %v",
					seed, pb.Spec.Msg.Name, observed, pb.EndToEnd)
			}
		}
		if violated {
			dumpScenario(t, "s3-chain", set, cfg, chain)
		}
	}
}

// TestRandomizedSoundnessDual extends S3 to the dual-redundant network:
// the first delivered copy is never later than any fixed plane's copy, so
// the single-plane bound covers the redundant architecture too.
func TestRandomizedSoundnessDual(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized harness skipped in -short")
	}
	params := traffic.DefaultRandomParams()
	for seed := uint64(70); seed <= 75; seed++ {
		set, err := traffic.Random(seed, params)
		if err != nil {
			t.Fatal(err)
		}
		dual := topology.Redundify(topology.Star(set.Stations()), 2)
		cfg := DefaultSimConfig(analysis.Priority)
		cfg.Seed = seed
		cfg.Horizon = simtime.Second
		bounds, err := StarScenario(set, cfg).Analyze(analysis.Priority)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sim, err := SimulateNetwork(set, cfg, dual)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		violated := false
		for _, pb := range bounds.Flows {
			observed := sim.Flows[pb.Spec.Msg.Name].Latency.Max()
			if observed > pb.EndToEnd {
				violated = true
				t.Errorf("seed %d %s: first-copy latency %v exceeds plane bound %v",
					seed, pb.Spec.Msg.Name, observed, pb.EndToEnd)
			}
		}
		if violated {
			dumpScenario(t, "s3-dual", set, cfg, dual)
		}
	}
}

// TestRandomizedNoMissesUnderPriorityWhenBoundsSay verifies agreement in
// the other direction: whenever the analysis says every deadline is met
// under priorities, the simulation must observe zero deadline misses.
func TestRandomizedNoMissesUnderPriorityWhenBoundsSay(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized harness skipped in -short")
	}
	params := traffic.DefaultRandomParams()
	checked := 0
	for seed := uint64(40); seed <= 52; seed++ {
		set, err := traffic.Random(seed, params)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSimConfig(analysis.Priority)
		cfg.Seed = seed
		cfg.Horizon = simtime.Second
		bounds, err := StarScenario(set, cfg).Analyze(analysis.Priority)
		if err != nil || bounds.Violations > 0 {
			continue // analysis does not promise anything for this seed
		}
		checked++
		sim, err := Simulate(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range sim.Flows {
			if f.DeadlineMisses > 0 {
				t.Errorf("seed %d: %s missed %d deadlines though bounds promised none",
					seed, name, f.DeadlineMisses)
			}
		}
	}
	if checked == 0 {
		t.Error("no seed produced an all-met analysis; harness checks nothing")
	}
}
