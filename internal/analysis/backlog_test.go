package analysis

import (
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// fourSwitchTree is a hub-and-leaves topology spreading the real-case
// stations over four switches, mirroring the "tree" family shape.
func fourSwitchTree(stations []string) *Tree {
	t := &Tree{
		Switches:      4,
		Links:         [][2]int{{0, 1}, {0, 2}, {0, 3}},
		StationSwitch: map[string]int{},
	}
	for i, s := range stations {
		t.StationSwitch[s] = i % 4
	}
	return t
}

// TestEdgeBacklogsCoversEveryDirectedEdge: the result enumerates every
// station uplink, both directions of every trunk, and every destination
// port — including edges no flow crosses (bound 0).
func TestEdgeBacklogsCoversEveryDirectedEdge(t *testing.T) {
	set := traffic.RealCase()
	tree := fourSwitchTree(set.Stations())
	res, err := EdgeBacklogs(set, DefaultConfig(), tree)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := 2*len(set.Stations()) + 2*len(tree.Links)
	if len(res.Edges) != wantEdges {
		t.Fatalf("%d edges, want %d", len(res.Edges), wantEdges)
	}
	seen := map[string]bool{}
	for _, e := range res.Edges {
		if seen[e.Key()] {
			t.Errorf("duplicate edge %s", e.Key())
		}
		seen[e.Key()] = true
	}
	for _, st := range set.Stations() {
		sw := swName(tree.StationSwitch[st])
		if !seen[st+"->"+sw] {
			t.Errorf("uplink edge %s->%s missing", st, sw)
		}
		if !seen[sw+"->"+st] {
			t.Errorf("destination edge %s->%s missing", sw, st)
		}
	}
	for _, l := range tree.Links {
		if !seen[swName(l[0])+"->"+swName(l[1])] || !seen[swName(l[1])+"->"+swName(l[0])] {
			t.Errorf("trunk edges for link %v missing", l)
		}
	}
	// The per-switch totals cover exactly the switch-resident queues.
	for sw := 0; sw < tree.Switches; sw++ {
		var want simtime.Size
		n := 0
		for _, e := range res.Edges {
			if e.Kind != EdgeUplink && e.Switch == sw {
				want += e.Bound
				n++
			}
		}
		total, edges, unstable := res.SwitchTotal(sw)
		if total != want || edges != n || unstable {
			t.Errorf("sw%d total = (%v, %d, %v), want (%v, %d, false)", sw, total, edges, unstable, want, n)
		}
	}
}

// TestEdgeBacklogsClosedForm pins the bound to the closed form Σbᵢ +
// (Σrᵢ)·t_techno for switch-resident queues and Σbᵢ for uplinks — the
// vertical deviation of a token-bucket aggregate against rate-latency
// service, independent of the link rate while the edge stays stable.
func TestEdgeBacklogsClosedForm(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	specs := Specs(set, cfg)
	tree := SingleSwitchTree(set.Stations())
	res, err := EdgeBacklogs(set, cfg, tree)
	if err != nil {
		t.Fatal(err)
	}
	bySource := groupBy(specs, func(f FlowSpec) string { return f.Msg.Source })
	byDest := groupBy(specs, func(f FlowSpec) string { return f.Msg.Dest })
	for _, e := range res.Edges {
		var flows []FlowSpec
		var want simtime.Size
		switch e.Kind {
		case EdgeUplink:
			flows = bySource[e.From]
			want = SumB(flows) // zero-latency service: the burst alone
		case EdgeDest:
			flows = byDest[e.To]
			want = SumB(flows) + simtime.Size(float64(SumR(flows).BitsPerSecond())*cfg.TTechno.Seconds())
		default:
			t.Fatalf("unexpected edge kind %v on a star", e.Kind)
		}
		if len(e.Flows) != len(flows) {
			t.Errorf("%s: %d flows, want %d", e.Key(), len(e.Flows), len(flows))
		}
		// Allow the ceil-rounding of the generic pipeline one bit of slack.
		if d := e.Bound - want; d < 0 || d > 1 {
			t.Errorf("%s: bound %v, closed form %v", e.Key(), e.Bound, want)
		}
	}
}

// TestEdgeBacklogsUnstableEdge: an over-subscribed edge is reported
// Unstable instead of failing the whole table, and stable edges keep
// their bounds.
func TestEdgeBacklogsUnstableEdge(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	tree := SingleSwitchTree(set.Stations())
	// Choke the busiest destination's access link to 1 kbps: its
	// destination edge is over-subscribed, its uplink likely too, but
	// every other station must still be priced.
	tree.StationRates = map[string]simtime.Rate{traffic.StationMC: 1000}
	res, err := EdgeBacklogs(set, cfg, tree)
	if err != nil {
		t.Fatal(err)
	}
	unstable := 0
	for _, e := range res.Edges {
		touchesMC := e.From == traffic.StationMC || e.To == traffic.StationMC
		if e.Unstable {
			unstable++
			if !touchesMC {
				t.Errorf("edge %s unstable though only mc's link is choked", e.Key())
			}
		}
	}
	if u, ok := res.ByKey(swName(0) + "->" + traffic.StationMC); !ok || !u.Unstable {
		t.Errorf("mc's destination edge not reported unstable: %+v", u)
	}
	if unstable == 0 {
		t.Error("no unstable edge on a choked link")
	}
	_, _, anyUnstable := res.SwitchTotal(0)
	if !anyUnstable {
		t.Error("switch total does not surface the unstable edge")
	}
}

// TestEdgeBacklogKeyFormat pins the directed-edge key currency shared
// with the simulator and the scenario schema.
func TestEdgeBacklogKeyFormat(t *testing.T) {
	e := EdgeBacklog{From: "nav", To: "sw0"}
	if e.Key() != "nav->sw0" {
		t.Errorf("key = %q", e.Key())
	}
	if EdgeUplink.String() != "uplink" || EdgeTrunk.String() != "trunk" || EdgeDest.String() != "dest" {
		t.Error("EdgeKind names drifted")
	}
	if !strings.Contains(EdgeKind(7).String(), "7") {
		t.Error("unknown kind not diagnosable")
	}
}

// TestStationSwitchNamespaceCollision: a station named like a switch
// ("sw<number>") would collide with the switch in every directed-edge key
// (bounds, observed marks, capacities), so validation rejects it up
// front. Dotted or merely sw-prefixed names stay legal.
func TestStationSwitchNamespaceCollision(t *testing.T) {
	for _, bad := range []string{"sw0", "sw1", "sw42"} {
		tree := SingleSwitchTree([]string{bad, "other"})
		if err := tree.Validate([]string{bad, "other"}); err == nil {
			t.Errorf("station %q accepted despite switch-namespace collision", bad)
		}
	}
	for _, okName := range []string{"sw", "switch", "sw0a", "swx", "s0"} {
		tree := SingleSwitchTree([]string{okName, "other"})
		if err := tree.Validate([]string{okName, "other"}); err != nil {
			t.Errorf("legal station %q rejected: %v", okName, err)
		}
	}
}
