package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestSimConfigHonoredOnEveryTopology is the regression test for a bug
// of the per-architecture simulators that preceded SimulateNetwork: the
// two-switch and tree variants silently ignored cfg.BER, cfg.Recorder,
// and the Shaped/Corrupted counters. Every SimConfig field must
// observably take effect on every architecture family.
func TestSimConfigHonoredOnEveryTopology(t *testing.T) {
	set := traffic.RealCase()
	stations := set.Stations()
	for _, fam := range topology.Families() {
		fam := fam
		t.Run(fam.Key, func(t *testing.T) {
			cfg := DefaultSimConfig(analysis.Priority)
			cfg.Horizon = 200 * simtime.Millisecond
			cfg.BER = 1e-4
			cfg.CollectLatencies = true
			cfg.Recorder = trace.NewRecorder(0)
			cfg.Babbler = "nav/attitude"
			cfg.BabbleFactor = 4

			res, err := SimulateNetwork(set, cfg, fam.Build(stations))
			if err != nil {
				t.Fatal(err)
			}
			if res.Corrupted == 0 {
				t.Error("BER > 0 but Corrupted == 0 — bit-error model not wired")
			}
			if res.Shaped == 0 {
				t.Error("babbling source but Shaped == 0 — shaper accounting not wired")
			}
			kinds := map[trace.EventKind]int{}
			for _, ev := range cfg.Recorder.Events() {
				kinds[ev.Kind]++
			}
			for _, k := range []trace.EventKind{trace.Released, trace.Delivered, trace.Shaped} {
				if kinds[k] == 0 {
					t.Errorf("recorder saw no %v events", k)
				}
			}
			collected := false
			for _, f := range res.Flows {
				if f.Latencies != nil && f.Latencies.N() > 0 {
					collected = true
					break
				}
			}
			if !collected {
				t.Error("CollectLatencies set but no histogram filled")
			}

			// Bounded queues must expose the loss mode on this topology too.
			lossy := DefaultSimConfig(analysis.Priority)
			lossy.Horizon = 100 * simtime.Millisecond
			lossy.QueueCapacity = 2000
			lossy.Recorder = trace.NewRecorder(0)
			lres, err := SimulateNetwork(set, lossy, fam.Build(stations))
			if err != nil {
				t.Fatal(err)
			}
			if lres.Dropped == 0 {
				t.Error("tiny QueueCapacity but Dropped == 0 — bounded queues not wired")
			}
		})
	}
}

// TestDualNetworkAccounting checks the redundant-plane bookkeeping: every
// copy is attributed to its plane, the first copy per instance counts as
// the delivery, and later copies are discarded as redundant.
func TestDualNetworkAccounting(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 300 * simtime.Millisecond
	dual := topology.Redundify(topology.Star(set.Stations()), 2)
	res, err := SimulateNetwork(set, cfg, dual)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PlaneDelivered) != 2 {
		t.Fatalf("PlaneDelivered = %v, want 2 planes", res.PlaneDelivered)
	}
	for p, n := range res.PlaneDelivered {
		if n == 0 {
			t.Errorf("plane %d delivered nothing", p)
		}
	}
	if res.Redundant == 0 {
		t.Error("identical planes produced no redundant copies")
	}
	if got, want := res.PlaneDelivered[0]+res.PlaneDelivered[1], res.TotalDelivered()+res.Redundant; got != want {
		t.Errorf("copy conservation broken: planes delivered %d, uniques+redundant = %d", got, want)
	}
	for name, f := range res.Flows {
		if f.Delivered > f.Released {
			t.Errorf("%s: delivered %d > released %d — duplicates leaked into flow stats", name, f.Delivered, f.Released)
		}
	}
	// Single-plane results must not grow redundancy fields.
	single, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.PlaneDelivered != nil || single.Redundant != 0 {
		t.Error("single-plane run populated redundancy accounting")
	}
}

// TestDualNetworkBabblerComparable pins the dedup key to (Seq, copy):
// babbled duplicates share a Seq, and on a clean dual network every copy
// the star delivers must also count as a delivery (not as cross-plane
// redundancy), so babbling-idiot results are comparable across
// architectures.
func TestDualNetworkBabblerComparable(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 200 * simtime.Millisecond
	cfg.Babbler = "nav/attitude"
	cfg.BabbleFactor = 4
	// Bypass the shapers: with them on, the token buckets contain the
	// babble (delivered ≤ released) and no duplicate Seq ever delivers.
	cfg.BypassShapers = true
	star, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := SimulateNetwork(set, cfg, topology.Redundify(topology.Star(set.Stations()), 2))
	if err != nil {
		t.Fatal(err)
	}
	sf, df := star.Flows["nav/attitude"], dual.Flows["nav/attitude"]
	if sf.Delivered <= sf.Released {
		t.Fatalf("babbler delivered %d ≤ released %d on star; factor not applied", sf.Delivered, sf.Released)
	}
	if df.Delivered != sf.Delivered {
		t.Errorf("babbler delivered %d on dual vs %d on star — copies miscounted as redundant",
			df.Delivered, sf.Delivered)
	}
}

// TestDualNetworkMasksLoss is the point of the dual-redundant
// architecture: under a lossy medium, two independent planes deliver
// instances a single network loses.
func TestDualNetworkMasksLoss(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 300 * simtime.Millisecond
	cfg.BER = 5e-5
	single, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := SimulateNetwork(set, cfg, topology.Redundify(topology.Star(set.Stations()), 2))
	if err != nil {
		t.Fatal(err)
	}
	if single.Corrupted == 0 {
		t.Fatal("BER produced no corruption; test checks nothing")
	}
	if dual.TotalDelivered() <= single.TotalDelivered() {
		t.Errorf("dual network delivered %d ≤ single %d under loss",
			dual.TotalDelivered(), single.TotalDelivered())
	}
}

// TestNetworkDeterministicAcrossWorkers extends the sweep engine's
// acceptance contract to the new topologies: for a fixed root seed, the
// replicated results are byte-identical at any worker count.
func TestNetworkDeterministicAcrossWorkers(t *testing.T) {
	set := traffic.RealCase()
	stations := set.Stations()
	for _, key := range []string{"chain", "dual", "dualskew"} {
		fam, err := topology.FamilyByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) []string {
			res, err := sweep.Replicate([]int{0, 1}, 2, workers, 7,
				func(_ int, seed uint64) (*SimResult, error) {
					cfg := DefaultSimConfig(analysis.Priority)
					cfg.Horizon = 100 * simtime.Millisecond
					cfg.Seed = seed
					cfg.Mode = traffic.RandomGaps
					cfg.MeanSlack = DefaultMeanSlack
					cfg.AlignPhases = false
					cfg.BER = 1e-5
					cfg.CollectLatencies = true
					return SimulateNetwork(set, cfg, fam.Build(stations))
				})
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for _, reps := range res {
				for _, r := range reps {
					out = append(out, goldenReport(set, r))
				}
			}
			return out
		}
		serial, parallel := run(1), run(8)
		if len(serial) != len(parallel) {
			t.Fatalf("%s: result counts differ", key)
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Errorf("%s: replication %d differs between workers=1 and workers=8:\n%s",
					key, i, firstDiff(serial[i], parallel[i]))
			}
		}
	}
}

// TestSimulateNetworkErrors pins the error paths.
func TestSimulateNetworkErrors(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	if _, err := SimulateNetwork(set, cfg, nil); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := SimulateNetwork(set, SimConfig{}, topology.Star(set.Stations())); err == nil {
		t.Error("invalid config accepted")
	}
	disconnected := &topology.Network{Switches: 2, StationSwitch: map[string]int{}}
	if _, err := SimulateNetwork(set, cfg, disconnected); err == nil {
		t.Error("disconnected topology accepted")
	}
	missing := topology.Star(nil)
	if _, err := SimulateNetwork(set, cfg, missing); err == nil {
		t.Error("topology without station placements accepted")
	}
}

// TestNetworkCrossTopologyFloors sanity-checks the physics of the chain:
// a connection crossing k trunks pays the relaying latency of every
// switch on its path (k+1 relays), so its minimum observed latency cannot
// fall below that — the hop count the topology dictates is really
// simulated.
func TestNetworkCrossTopologyFloors(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 300 * simtime.Millisecond
	chain := topology.Chain(set.Stations(), 4)
	res, err := SimulateNetwork(set, cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	tree := chain.Tree()
	sawCross := false
	for _, m := range set.Messages {
		f := res.Flows[m.Name]
		if f.Delivered == 0 {
			continue
		}
		path, err := tree.SwitchPath(m.Source, m.Dest)
		if err != nil {
			t.Fatal(err)
		}
		trunks := len(path) - 1
		if trunks > 0 {
			sawCross = true
		}
		relayFloor := simtime.Duration(trunks+1) * cfg.TTechno
		if f.Latency.Min() < relayFloor {
			t.Errorf("%s (%d trunks): observed min %v below relay floor %v",
				m.Name, trunks, f.Latency.Min(), relayFloor)
		}
	}
	if !sawCross {
		t.Error("no connection crossed a trunk; chain placement checks nothing")
	}
}

// TestTopoGridResultLabels ensures the family name travels with the cell
// so sweep reports stay attributable. (Full grid coverage lives in
// sweep_test.go; this is the topology-axis smoke check.)
func TestTopoGridResultLabels(t *testing.T) {
	fams := []topology.Family{}
	for _, key := range []string{"star", "chain"} {
		f, err := topology.FamilyByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		fams = append(fams, f)
	}
	base := DefaultSimConfig(analysis.Priority)
	base.Horizon = 50 * simtime.Millisecond
	points := TopoGrid(fams, []simtime.Rate{10 * simtime.Mbps}, []int{0})
	cells, err := RunTopoGrid(points, base, Serial(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	for i, c := range cells {
		if c.Topology != points[i].Family.Key {
			t.Errorf("cell %d labeled %q, want %q", i, c.Topology, points[i].Family.Key)
		}
		if !c.Sound() {
			t.Errorf("%s: bound violated in smoke grid", c.Topology)
		}
		if c.Delivered == 0 {
			t.Errorf("%s: no deliveries", c.Topology)
		}
	}
}
