package analysis

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file pins the two latent bugs fixed in the trunk stage — the
// double muxBound evaluation per (flow, trunk edge) and the from*1000+to
// topological tie-break that collides at ≥1000 switches — plus the
// byte-identity of the per-class-sum multiplexer tables against the
// historical per-flow formulation, and of the closed-form edge backlogs
// against their netcalc pricing.

// muxBound is the historical per-flow multiplexer bound: the
// discipline's closed form over the whole group, re-evaluated for every
// member. The analyses now evaluate each multiplexer once (muxTable);
// this is the reference they must reproduce.
func muxBound(specs []FlowSpec, member FlowSpec, approach Approach, cfg Config) (simtime.Duration, error) {
	switch approach {
	case FCFS:
		return FCFSBound(specs, cfg)
	case Priority:
		return PriorityBound(specs, member.Msg.Priority, cfg)
	default:
		return 0, fmt.Errorf("analysis: unknown approach %v", approach)
	}
}

// treeEndToEndReference is a verbatim re-implementation of the historical
// TreeEndToEnd: per-flow muxBound calls (evaluated twice per flow and
// trunk edge, as the old trunk stage did) and no caching. It is the
// byte-identity reference the refactored implementation must reproduce on
// topologies below the old sort key's 1000-switch collision threshold.
func treeEndToEndReference(set *traffic.Set, approach Approach, cfg Config, tree *Tree) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if err := tree.Validate(set.Stations()); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)

	linkIdx := map[dirEdge]int{}
	for i, l := range tree.Links {
		linkIdx[dirEdge{l[0], l[1]}] = i
		linkIdx[dirEdge{l[1], l[0]}] = i
	}
	paths := make([][]dirEdge, len(specs))
	for i, f := range specs {
		sp, err := tree.SwitchPath(f.Msg.Source, f.Msg.Dest)
		if err != nil {
			return nil, err
		}
		for h := 0; h+1 < len(sp); h++ {
			paths[i] = append(paths[i], dirEdge{sp[h], sp[h+1]})
		}
	}

	bySource := groupBy(specs, func(f FlowSpec) string { return f.Msg.Source })
	stage1 := make([]simtime.Duration, len(specs))
	fixed := make([]simtime.Duration, len(specs))
	current := make([]FlowSpec, len(specs))
	for i, f := range specs {
		srcCfg := cfg
		srcCfg.TTechno = 0
		srcCfg.LinkRate = tree.StationRate(f.Msg.Source, cfg.LinkRate)
		d, err := muxBound(bySource[f.Msg.Source], f, approach, srcCfg)
		if err != nil {
			return nil, fmt.Errorf("station %s: %w", f.Msg.Source, err)
		}
		stage1[i] = d
		fixed[i] = tree.StationProp(f.Msg.Source)
		current[i] = inflate(f, d)
	}

	edgeFlows := map[dirEdge][]int{}
	deps := map[dirEdge]map[dirEdge]bool{}
	indeg := map[dirEdge]int{}
	for i, p := range paths {
		for h, e := range p {
			if _, ok := indeg[e]; !ok {
				indeg[e] = 0
			}
			edgeFlows[e] = append(edgeFlows[e], i)
			if h > 0 {
				prev := p[h-1]
				if deps[prev] == nil {
					deps[prev] = map[dirEdge]bool{}
				}
				if !deps[prev][e] {
					deps[prev][e] = true
					indeg[e]++
				}
			}
		}
	}
	var order []dirEdge
	var ready []dirEdge
	//rtlint:sorted-after
	for e, d := range indeg {
		if d == 0 {
			ready = append(ready, e)
		}
	}
	sort.Slice(ready, func(a, b int) bool {
		return ready[a].from*1000+ready[a].to < ready[b].from*1000+ready[b].to
	})
	for len(ready) > 0 {
		e := ready[0]
		ready = ready[1:]
		order = append(order, e)
		//rtlint:sorted-after
		for next := range deps[e] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
		sort.Slice(ready, func(a, b int) bool {
			return ready[a].from*1000+ready[a].to < ready[b].from*1000+ready[b].to
		})
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("analysis: cyclic trunk dependencies — topology is not a tree")
	}

	trunkDelay := make([]simtime.Duration, len(specs))
	for _, e := range order {
		li := linkIdx[e]
		edgeCfg := cfg
		edgeCfg.LinkRate = tree.TrunkRate(li, cfg.LinkRate)
		flows := edgeFlows[e]
		agg := make([]FlowSpec, 0, len(flows))
		for _, i := range flows {
			agg = append(agg, current[i])
		}
		for _, i := range flows {
			d, err := muxBound(agg, current[i], approach, edgeCfg)
			if err != nil {
				return nil, fmt.Errorf("trunk %d→%d: %w", e.from, e.to, err)
			}
			trunkDelay[i] += d
			fixed[i] += tree.TrunkProp(li)
		}
		// The historical double evaluation: the inflation loop recomputed
		// every bound instead of reusing the accumulation loop's values.
		for _, i := range flows {
			d, err := muxBound(agg, current[i], approach, edgeCfg)
			if err != nil {
				return nil, err
			}
			current[i] = inflate(current[i], d)
		}
	}

	byDest := groupBy(current, func(f FlowSpec) string { return f.Msg.Dest })
	res := &Result{Approach: approach, Cfg: cfg}
	for i, f := range specs {
		destCfg := cfg
		destCfg.LinkRate = tree.StationRate(f.Msg.Dest, cfg.LinkRate)
		d, err := muxBound(byDest[f.Msg.Dest], current[i], approach, destCfg)
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", f.Msg.Dest, err)
		}
		fixed[i] += tree.StationProp(f.Msg.Dest)
		hops := len(paths[i]) + 2
		floor := simtime.TransmissionTime(f.B, tree.StationRate(f.Msg.Source, cfg.LinkRate)) +
			simtime.TransmissionTime(f.B, destCfg.LinkRate) +
			simtime.Duration(hops-1)*cfg.TTechno + fixed[i]
		for _, e := range paths[i] {
			floor += simtime.TransmissionTime(f.B, tree.TrunkRate(linkIdx[e], cfg.LinkRate))
		}
		pb := PathBound{
			Spec:        f,
			SourceDelay: stage1[i],
			PortDelay:   trunkDelay[i] + d,
			EndToEnd:    stage1[i] + trunkDelay[i] + d + fixed[i],
			Floor:       floor,
		}
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(f.Msg.Deadline)
		res.add(pb)
	}
	return res, nil
}

// chainTree spreads the set's stations over a 4-switch chain 0-1-2-3, so
// flows cross up to three trunk multiplexers in sequence.
func chainTree(set *traffic.Set) *Tree {
	t := &Tree{Switches: 4, Links: [][2]int{{0, 1}, {1, 2}, {2, 3}}, StationSwitch: map[string]int{}}
	for i, s := range set.Stations() {
		t.StationSwitch[s] = i % 4
	}
	return t
}

// twoSwitchTree splits the set's stations over two switches joined by one
// trunk: the mission computer, displays and their feeders front (0),
// everything else aft (1) — the front/back fuselage split.
func twoSwitchTree(set *traffic.Set) *Tree {
	t := &Tree{Switches: 2, Links: [][2]int{{0, 1}}, StationSwitch: map[string]int{}}
	for _, s := range set.Stations() {
		switch s {
		case traffic.StationMC, traffic.StationDisplay, traffic.StationNav, traffic.StationADC:
			t.StationSwitch[s] = 0
		default:
			t.StationSwitch[s] = 1
		}
	}
	return t
}

// TestTreeEndToEndMatchesReference pins the per-class-sum refactor and
// the trunk-stage bugfix: one table per multiplexer, its delays reused
// for inflation, must leave every PathBound byte-identical to the
// historical per-flow, double-evaluating formulation, under both
// disciplines, on the one-switch star, the two-switch cascade and
// chains with and without heterogeneous trunk rates — and an unknown
// discipline must fail with the reference's error.
func TestTreeEndToEndMatchesReference(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	homo := chainTree(set)
	hetero := chainTree(set)
	hetero.TrunkRates = []simtime.Rate{100 * simtime.Mbps, 0, 25 * simtime.Mbps}
	hetero.TrunkProps = []simtime.Duration{simtime.Microsecond, 0, 3 * simtime.Microsecond}

	for _, tree := range []*Tree{SingleSwitchTree(set.Stations()), twoSwitchTree(set), homo, hetero} {
		for _, approach := range []Approach{FCFS, Priority, Approach(7)} {
			want, wantErr := treeEndToEndReference(set, approach, cfg, tree)
			got, err := TreeEndToEnd(set, approach, cfg, tree)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%v: error %v, reference %v", approach, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: TreeEndToEnd diverges from the per-flow double-evaluating reference", approach)
			}
		}
	}
}

// TestCompareDirEdgesBeyondPackedKeyCollisions exercises the exact pairs
// the old packed key from*1000+to could not tell apart.
func TestCompareDirEdgesBeyondPackedKeyCollisions(t *testing.T) {
	cases := []struct {
		a, b dirEdge
		want int
	}{
		{dirEdge{0, 1000}, dirEdge{1, 0}, -1},   // both packed to 1000
		{dirEdge{1, 2000}, dirEdge{3, 0}, -1},   // both packed to 3000
		{dirEdge{2, 500}, dirEdge{2, 1500}, -1}, // same from, ordered by to
		{dirEdge{7, 7}, dirEdge{7, 7}, 0},
	}
	for _, c := range cases {
		if got := compareDirEdges(c.a, c.b); sign(got) != c.want {
			t.Errorf("compareDirEdges(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
		if got := compareDirEdges(c.b, c.a); sign(got) != -c.want {
			t.Errorf("compareDirEdges(%v, %v) = %d, want sign %d", c.b, c.a, got, -c.want)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// TestTrunkTopoOrderWideTreeDeterministic drives the ordering over a
// 1200-leaf star — far beyond the old key's collision threshold — and
// asserts it is identical on every call and respects every crossed-before
// dependency. Under the old packed key, colliding ready edges were
// ordered by map iteration, so repeated calls disagreed.
func TestTrunkTopoOrderWideTreeDeterministic(t *testing.T) {
	const leaves = 1200
	paths := make([][]dirEdge, 0, leaves)
	for i := 1; i <= leaves; i++ {
		j := i%leaves + 1
		paths = append(paths, []dirEdge{{i, 0}, {0, j}})
	}
	first, err := trunkTopoOrder(paths)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * leaves; len(first) != want {
		t.Fatalf("order has %d edges, want %d", len(first), want)
	}
	pos := map[dirEdge]int{}
	for i, e := range first {
		pos[e] = i
	}
	for _, p := range paths {
		if pos[p[0]] >= pos[p[1]] {
			t.Fatalf("dependency violated: %v at %d not before %v at %d", p[0], pos[p[0]], p[1], pos[p[1]])
		}
	}
	for run := 0; run < 20; run++ {
		again, err := trunkTopoOrder(paths)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, first) {
			t.Fatalf("run %d: trunk topological order is not deterministic", run)
		}
	}
}

// wideStarScenario builds a 1101-switch star with two over-subscribed
// trunks whose old sort keys collide: (0,1000) and (1,0) both packed to
// 1000, and both are ready initially — so the historical code picked the
// erroring trunk by map iteration order.
func wideStarScenario() (*traffic.Set, *Tree) {
	const switches = 1101
	tree := &Tree{Switches: switches, StationSwitch: map[string]int{
		"c1": 0, "c2": 0, // center stations flooding trunk 0→1000
		"s1a": 1, "s1b": 1, // leaf-1 stations flooding trunk 1→0
		"dfar": 1000, "d2": 2,
	}}
	for i := 1; i < switches; i++ {
		tree.Links = append(tree.Links, [2]int{0, i})
	}
	// 1500 B every 2 ms ≥ 6 Mb/s on the wire: one flow fits a 10 Mb/s
	// edge, two sharing one trunk exceed it.
	mk := func(name, src, dst string) *traffic.Message {
		return &traffic.Message{
			Name: name, Source: src, Dest: dst, Kind: traffic.Periodic,
			Period: 2 * simtime.Millisecond, Payload: simtime.Bytes(1500),
			Deadline: 100 * simtime.Millisecond, Priority: traffic.P1,
		}
	}
	set := &traffic.Set{Messages: []*traffic.Message{
		mk("far-a", "c1", "dfar"),
		mk("far-b", "c2", "dfar"),
		mk("near-a", "s1a", "d2"),
		mk("near-b", "s1b", "d2"),
	}}
	return set, tree
}

// TestWideTreeUnstableTrunkErrorDeterministic asserts the observable
// symptom of the collision bug is gone: with two colliding unstable
// trunks both ready, the reported trunk is the lexicographically first
// one, on every call.
func TestWideTreeUnstableTrunkErrorDeterministic(t *testing.T) {
	set, tree := wideStarScenario()
	cfg := DefaultConfig()
	const want = "trunk 0→1000: analysis: aggregate rate exceeds link capacity"
	for run := 0; run < 10; run++ {
		_, err := TreeEndToEnd(set, FCFS, cfg, tree)
		if err == nil {
			t.Fatal("expected the over-subscribed wide star to be unstable")
		}
		if err.Error() != want {
			t.Fatalf("run %d: error %q, want %q", run, err, want)
		}
	}
}

// TestMuxDelaysMatchesMuxBound asserts the per-class-sum multiplexer
// tables are byte-identical to the historical per-flow muxBound calls
// they replace, for every member and both disciplines, on the whole
// catalog and on every destination port of it.
func TestMuxDelaysMatchesMuxBound(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	specs := Specs(set, cfg)
	groups := [][]FlowSpec{specs}
	byDest := groupBy(specs, func(f FlowSpec) string { return f.Msg.Dest })
	for _, dest := range slices.Sorted(maps.Keys(byDest)) {
		groups = append(groups, byDest[dest])
	}
	for _, approach := range []Approach{FCFS, Priority, Approach(7)} {
		for _, group := range groups {
			sums := sumsOf(group)
			tbl := sums.table(approach, cfg)
			for _, f := range group {
				wantD, wantErr := muxBound(group, f, approach, cfg)
				gotD, gotErr := tbl.delay(f)
				if gotD != wantD || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%v %s: table (%v, %v) != muxBound (%v, %v)",
						approach, f.Msg.Name, gotD, gotErr, wantD, wantErr)
				}
			}
		}
	}
}

// TestEdgeBacklogsMatchesNetcalcOracle asserts the closed-form edge
// backlogs equal the netcalc-priced ones edge for edge — bound, flows and
// instability — on the star, a hub-and-leaves tree, and homogeneous and
// heterogeneous chains, including one whose slow trunks and access links
// over-subscribe some edges.
func TestEdgeBacklogsMatchesNetcalcOracle(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultConfig()
	hetero := chainTree(set)
	hetero.TrunkRates = []simtime.Rate{100 * simtime.Mbps, 0, 25 * simtime.Mbps}
	slow := chainTree(set)
	slow.TrunkRates = []simtime.Rate{simtime.Mbps, simtime.BitPerSecond, 0}
	slow.StationRates = map[string]simtime.Rate{set.Stations()[0]: simtime.BitPerSecond}
	unstable := 0
	for _, tree := range []*Tree{SingleSwitchTree(set.Stations()), fourSwitchTree(set.Stations()), chainTree(set), hetero, slow} {
		want, err := EdgeBacklogsNC(set, cfg, tree)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EdgeBacklogs(set, cfg, tree)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cfg != want.Cfg || !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Fatalf("closed-form EdgeBacklogs diverges from the netcalc pricing:\n got %+v\nwant %+v", got.Edges, want.Edges)
		}
		for _, e := range got.Edges {
			if e.Unstable {
				unstable++
			}
		}
	}
	if unstable == 0 {
		t.Fatal("no over-subscribed edge exercised the instability agreement")
	}
}
