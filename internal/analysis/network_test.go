package analysis

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// TestClaimFCFSViolatesUrgentDeadline reproduces prose claim C1: despite
// the 10× speed advantage over 1553B, the shaping-only FCFS approach
// violates real-time constraints — specifically the 3 ms urgent class.
func TestClaimFCFSViolatesUrgentDeadline(t *testing.T) {
	res, err := SingleHop(traffic.RealCase(), FCFS, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("FCFS meets every deadline — the paper's motivating failure is absent")
	}
	pb, ok := res.ByName("ew/threat-warning")
	if !ok {
		t.Fatal("urgent connection missing")
	}
	if pb.Met {
		t.Errorf("urgent FCFS bound %v meets its 3ms deadline; paper requires a violation", pb.EndToEnd)
	}
	if pb.EndToEnd <= simtime.Duration(traffic.UrgentDeadline) {
		t.Errorf("urgent FCFS bound %v ≤ 3ms", pb.EndToEnd)
	}
}

// TestClaimPriorityMeetsUrgentDeadline reproduces prose claim C2: "the
// latency bound for messages with high priority is lower than 3ms".
func TestClaimPriorityMeetsUrgentDeadline(t *testing.T) {
	res, err := SingleHop(traffic.RealCase(), Priority, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if f.Spec.Msg.Priority != traffic.P0 {
			continue
		}
		if !f.Met {
			t.Errorf("%s: priority bound %v misses 3ms", f.Spec.Msg.Name, f.EndToEnd)
		}
	}
	if res.ClassWorst[traffic.P0] >= simtime.Duration(traffic.UrgentDeadline) {
		t.Errorf("worst P0 bound %v ≥ 3ms", res.ClassWorst[traffic.P0])
	}
}

// TestClaimPeriodicImproves reproduces prose claim C3: "the latency bound
// of periodic messages (priority 1) is smaller than the one obtained with
// the FCFS approach".
func TestClaimPeriodicImproves(t *testing.T) {
	cfg := DefaultConfig()
	fcfs, err := SingleHop(traffic.RealCase(), FCFS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prio, err := SingleHop(traffic.RealCase(), Priority, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fcfs.Flows {
		if f.Spec.Msg.Priority != traffic.P1 {
			continue
		}
		// The paper's claim concerns the contested multiplexer, where
		// substantial lower-priority traffic exists to be overtaken; there
		// the improvement must be strict.
		if f.Spec.Msg.Dest != traffic.StationMC {
			continue
		}
		p := prio.Flows[i]
		if p.EndToEnd >= f.EndToEnd {
			t.Errorf("%s: priority bound %v not strictly smaller than FCFS %v at the bottleneck",
				f.Spec.Msg.Name, p.EndToEnd, f.EndToEnd)
		}
	}
}

// TestPriorityInversionOnThinPorts documents a genuine subtlety of the
// paper's D_p formula that Figure 1 (bottleneck-focused) does not show:
// on a port with almost no lower-priority traffic, the P1 bound can
// slightly EXCEED the FCFS bound. The numerator barely shrinks (the single
// lower frame reappears as the blocking term max bⱼ) while the denominator
// loses the P0 rate — so the formula's rate penalty is not always paid
// back. See EXPERIMENTS.md.
func TestPriorityInversionOnThinPorts(t *testing.T) {
	cfg := DefaultConfig()
	fcfs, err := SingleHop(traffic.RealCase(), FCFS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prio, err := SingleHop(traffic.RealCase(), Priority, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inverted := 0
	for i, f := range fcfs.Flows {
		if f.Spec.Msg.Priority == traffic.P1 && prio.Flows[i].EndToEnd > f.EndToEnd {
			inverted++
		}
	}
	if inverted == 0 {
		t.Skip("no inversion in this catalog (load-dependent)")
	}
	// The inversion must stay marginal — a denominator effect, not a
	// blow-up: within 5% of the FCFS bound.
	for i, f := range fcfs.Flows {
		if f.Spec.Msg.Priority != traffic.P1 {
			continue
		}
		p := prio.Flows[i]
		if p.EndToEnd > f.EndToEnd+f.EndToEnd/20 {
			t.Errorf("%s: inversion too large: priority %v vs FCFS %v",
				f.Spec.Msg.Name, p.EndToEnd, f.EndToEnd)
		}
	}
}

func TestSingleHopFCFSUniformPerPort(t *testing.T) {
	// Under FCFS every connection of one destination port shares the same
	// bound (the formula does not depend on the member).
	res, err := SingleHop(traffic.RealCase(), FCFS, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	perDest := map[string]simtime.Duration{}
	for _, f := range res.Flows {
		if prev, ok := perDest[f.Spec.Msg.Dest]; ok && prev != f.EndToEnd {
			t.Errorf("FCFS bounds differ within port %s: %v vs %v", f.Spec.Msg.Dest, prev, f.EndToEnd)
		}
		perDest[f.Spec.Msg.Dest] = f.EndToEnd
	}
	// The mission computer port carries the most connections, so its bound
	// must be the largest.
	mc := perDest[traffic.StationMC]
	for dest, d := range perDest {
		if d > mc {
			t.Errorf("port %s bound %v exceeds MC port %v", dest, d, mc)
		}
	}
}

func TestPriorityClassOrderingAtBottleneck(t *testing.T) {
	// Within the bottleneck port, higher classes must have smaller bounds
	// (the blocking term can invert tiny cases, but not at this load).
	res, err := SingleHop(traffic.RealCase(), Priority, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for p := traffic.P0; p < traffic.NumPriorities-1; p++ {
		if res.ClassWorst[p] >= res.ClassWorst[p+1] {
			t.Errorf("class %v worst %v not below class %v worst %v",
				p, res.ClassWorst[p], p+1, res.ClassWorst[p+1])
		}
	}
}

func TestEndToEndDominatesSingleHop(t *testing.T) {
	cfg := DefaultConfig()
	set := traffic.RealCase()
	for _, approach := range []Approach{FCFS, Priority} {
		sh, err := SingleHop(set, approach, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e2e, err := TreeEndToEnd(set, approach, cfg, SingleSwitchTree(set.Stations()))
		if err != nil {
			t.Fatal(err)
		}
		for i := range sh.Flows {
			if e2e.Flows[i].EndToEnd < sh.Flows[i].EndToEnd {
				t.Errorf("%v %s: end-to-end %v below single-hop %v",
					approach, sh.Flows[i].Spec.Msg.Name,
					e2e.Flows[i].EndToEnd, sh.Flows[i].EndToEnd)
			}
			if e2e.Flows[i].SourceDelay <= 0 {
				t.Errorf("%v %s: no source-stage delay", approach, sh.Flows[i].Spec.Msg.Name)
			}
		}
	}
}

func TestEndToEndPriorityStillMeetsUrgent(t *testing.T) {
	// The refined (larger) bound still lands the urgent class below 3 ms —
	// the paper's conclusion survives the compositional analysis.
	set := traffic.RealCase()
	res, err := TreeEndToEnd(set, Priority, DefaultConfig(), SingleSwitchTree(set.Stations()))
	if err != nil {
		t.Fatal(err)
	}
	if res.ClassWorst[traffic.P0] >= simtime.Duration(traffic.UrgentDeadline) {
		t.Errorf("end-to-end worst P0 bound %v ≥ 3ms", res.ClassWorst[traffic.P0])
	}
}

func TestJitterBounds(t *testing.T) {
	// Experiment J1 (paper future work): jitter = D_max − D_min must be
	// positive, and priorities must shrink urgent-class jitter vs FCFS.
	cfg := DefaultConfig()
	fcfs, err := SingleHop(traffic.RealCase(), FCFS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prio, err := SingleHop(traffic.RealCase(), Priority, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fcfs.Flows {
		if f.Jitter < 0 {
			t.Errorf("%s: negative FCFS jitter %v", f.Spec.Msg.Name, f.Jitter)
		}
		if f.Floor > f.EndToEnd {
			t.Errorf("%s: floor %v above bound %v", f.Spec.Msg.Name, f.Floor, f.EndToEnd)
		}
		// An uncontested port (single connection) legitimately has zero
		// jitter; at the bottleneck the queueing term must show.
		if f.Spec.Msg.Dest != traffic.StationMC {
			continue
		}
		if f.Jitter <= 0 {
			t.Errorf("%s: no jitter at the contested port", f.Spec.Msg.Name)
		}
		if f.Spec.Msg.Priority == traffic.P0 {
			if prio.Flows[i].Jitter >= f.Jitter {
				t.Errorf("%s: priority jitter %v not below FCFS jitter %v",
					f.Spec.Msg.Name, prio.Flows[i].Jitter, f.Jitter)
			}
		}
	}
}

func TestViolatedNamesAndByName(t *testing.T) {
	res, err := SingleHop(traffic.RealCase(), FCFS, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := res.ViolatedNames()
	if len(names) != res.Violations {
		t.Errorf("%d names for %d violations", len(names), res.Violations)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("ViolatedNames not sorted")
		}
	}
	if _, ok := res.ByName("no-such-connection"); ok {
		t.Error("ByName found a ghost")
	}
}

func TestPortBacklogs(t *testing.T) {
	set := traffic.RealCase()
	res, err := EdgeBacklogs(set, DefaultConfig(), SingleSwitchTree(set.Stations()))
	if err != nil {
		t.Fatal(err)
	}
	backlogs := map[string]simtime.Size{}
	for _, e := range res.Edges {
		if e.Kind == EdgeDest && len(e.Flows) > 0 {
			backlogs[e.To] = e.Bound
		}
	}
	if len(backlogs) == 0 {
		t.Fatal("no ports")
	}
	mc, ok := backlogs[traffic.StationMC]
	if !ok {
		t.Fatal("no MC port backlog")
	}
	for dest, b := range backlogs {
		if b <= 0 {
			t.Errorf("port %s: non-positive backlog %v", dest, b)
		}
		if b > mc {
			t.Errorf("port %s backlog %v exceeds bottleneck %v", dest, b, mc)
		}
	}
	// The bottleneck buffer must hold at least the aggregate burst (~48 kbit).
	if mc < 40000 {
		t.Errorf("MC backlog bound %v implausibly small", mc)
	}
}

func TestAnalysisErrorPaths(t *testing.T) {
	set := traffic.RealCase()
	badCfg := Config{LinkRate: 0}
	if _, err := SingleHop(set, FCFS, badCfg); err == nil {
		t.Error("invalid config accepted by SingleHop")
	}
	if _, err := TreeEndToEnd(set, FCFS, badCfg, SingleSwitchTree(set.Stations())); err == nil {
		t.Error("invalid config accepted by TreeEndToEnd")
	}
	// Overload: 10 Mbps cannot carry the catalog at 1000× rate... emulate
	// by shrinking the link instead.
	tiny := Config{LinkRate: 100 * simtime.Kbps, TTechno: 0, Tagged: true}
	if _, err := SingleHop(set, FCFS, tiny); err == nil {
		t.Error("unstable system produced bounds")
	}
	invalid := &traffic.Set{Messages: []*traffic.Message{{Name: ""}}}
	if _, err := SingleHop(invalid, FCFS, DefaultConfig()); err == nil {
		t.Error("invalid set accepted")
	}
}
