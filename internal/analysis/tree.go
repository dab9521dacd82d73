package analysis

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file holds the one end-to-end analysis: a compositional bound over
// an arbitrary tree of switches — the paper's one-switch star
// (SingleSwitchTree), a cascade, or the deeper shapes avionics backbones
// take when a single switch cannot reach every equipment bay. A
// connection crosses:
//
//	source uplink → one trunk multiplexer per switch-to-switch edge on
//	its (unique) tree path → the destination output port
//
// Soundness of the composition relies on a structural property of trees:
// the "crossed-before" relation on *directed* trunk edges is acyclic
// (every flow crossing edge u→v has its source on u's side of the cut, so
// any edge some flow crosses before u→v lies on u's side and no flow can
// cross it after u→v). Directed edges are therefore processed in
// topological order, each flow's token bucket inflated by the bounds of
// its already-processed upstream stages.

// Tree describes the switch topology.
type Tree struct {
	// Switches is the number of switches, identified 0..Switches-1.
	Switches int
	// Links are the undirected switch-to-switch edges; a valid tree has
	// exactly Switches−1 of them, connected.
	Links [][2]int
	// StationSwitch maps every station to its switch.
	StationSwitch map[string]int

	// TrunkRates optionally overrides the capacity of individual trunks:
	// TrunkRates[i] is the rate of Links[i], 0 meaning Config.LinkRate.
	// Nil (or shorter than Links) leaves the remaining trunks at the
	// default — the homogeneous network of the paper.
	TrunkRates []simtime.Rate
	// TrunkProps holds per-trunk propagation delays (TrunkProps[i] for
	// Links[i]); propagation is a constant shift, so it adds to the bound
	// and the floor without inflating any arrival curve.
	TrunkProps []simtime.Duration
	// StationRates optionally overrides the full-duplex access-link rate
	// of individual stations (uplink and switch-side output port alike).
	StationRates map[string]simtime.Rate
	// StationProps holds per-station access-link propagation delays.
	StationProps map[string]simtime.Duration
}

// TrunkRate returns the capacity of trunk i, falling back to def.
func (t *Tree) TrunkRate(i int, def simtime.Rate) simtime.Rate {
	if i < len(t.TrunkRates) && t.TrunkRates[i] > 0 {
		return t.TrunkRates[i]
	}
	return def
}

// TrunkProp returns the propagation delay of trunk i (0 if unset).
func (t *Tree) TrunkProp(i int) simtime.Duration {
	if i < len(t.TrunkProps) {
		return t.TrunkProps[i]
	}
	return 0
}

// StationRate returns the access-link rate of a station, falling back to
// def.
func (t *Tree) StationRate(name string, def simtime.Rate) simtime.Rate {
	if r, ok := t.StationRates[name]; ok && r > 0 {
		return r
	}
	return def
}

// StationProp returns the access-link propagation delay of a station.
func (t *Tree) StationProp(name string) simtime.Duration {
	return t.StationProps[name]
}

// Heterogeneous reports whether any per-link override is set.
func (t *Tree) Heterogeneous() bool {
	for _, r := range t.TrunkRates {
		if r > 0 {
			return true
		}
	}
	for _, p := range t.TrunkProps {
		if p > 0 {
			return true
		}
	}
	return len(t.StationRates) > 0 || len(t.StationProps) > 0
}

// SingleSwitchTree returns the degenerate one-switch topology for a
// station list (every station on switch 0).
func SingleSwitchTree(stations []string) *Tree {
	t := &Tree{Switches: 1, StationSwitch: map[string]int{}}
	for _, s := range stations {
		t.StationSwitch[s] = 0
	}
	return t
}

// Validate checks tree structure and station coverage.
func (t *Tree) Validate(stations []string) error {
	if t.Switches < 1 {
		return fmt.Errorf("analysis: tree with %d switches", t.Switches)
	}
	if len(t.Links) != t.Switches-1 {
		return fmt.Errorf("analysis: %d links for %d switches (want %d)", len(t.Links), t.Switches, t.Switches-1)
	}
	adj := make([][]int, t.Switches)
	for _, l := range t.Links {
		a, b := l[0], l[1]
		if a < 0 || a >= t.Switches || b < 0 || b >= t.Switches || a == b {
			return fmt.Errorf("analysis: invalid link %v", l)
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	// Connectivity via BFS from 0.
	seen := make([]bool, t.Switches)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("analysis: switch %d unreachable", i)
		}
	}
	for _, s := range stations {
		sw, ok := t.StationSwitch[s]
		if !ok {
			return fmt.Errorf("analysis: station %q not placed on a switch", s)
		}
		if sw < 0 || sw >= t.Switches {
			return fmt.Errorf("analysis: station %q on invalid switch %d", s, sw)
		}
	}
	// Switches are named "sw<id>" in reports and directed-edge keys
	// ("nav->sw0", "sw0->sw1"); a station sharing that namespace would
	// collide with a switch in every key-addressed table (backlog bounds,
	// observed marks, queue capacities), so it is rejected up front.
	for _, s := range slices.Sorted(maps.Keys(t.StationSwitch)) {
		if isSwitchName(s) {
			return fmt.Errorf("analysis: station name %q collides with the switch namespace (sw<number>)", s)
		}
	}
	if len(t.TrunkRates) > len(t.Links) {
		return fmt.Errorf("analysis: %d trunk rates for %d links", len(t.TrunkRates), len(t.Links))
	}
	for i, r := range t.TrunkRates {
		if r < 0 {
			return fmt.Errorf("analysis: negative rate %v on trunk %v", r, t.Links[i])
		}
	}
	if len(t.TrunkProps) > len(t.Links) {
		return fmt.Errorf("analysis: %d trunk propagation delays for %d links", len(t.TrunkProps), len(t.Links))
	}
	for i, p := range t.TrunkProps {
		if p < 0 {
			return fmt.Errorf("analysis: negative propagation delay %v on trunk %v", p, t.Links[i])
		}
	}
	for _, s := range slices.Sorted(maps.Keys(t.StationRates)) {
		r := t.StationRates[s]
		if _, ok := t.StationSwitch[s]; !ok {
			return fmt.Errorf("analysis: rate override for unplaced station %q", s)
		}
		if r < 0 {
			return fmt.Errorf("analysis: negative rate %v for station %q", r, s)
		}
	}
	for _, s := range slices.Sorted(maps.Keys(t.StationProps)) {
		p := t.StationProps[s]
		if _, ok := t.StationSwitch[s]; !ok {
			return fmt.Errorf("analysis: propagation override for unplaced station %q", s)
		}
		if p < 0 {
			return fmt.Errorf("analysis: negative propagation delay %v for station %q", p, s)
		}
	}
	return nil
}

// isSwitchName reports whether a name lies in the reserved "sw<number>"
// switch namespace.
func isSwitchName(s string) bool {
	if len(s) < 3 || s[:2] != "sw" {
		return false
	}
	for _, c := range s[2:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// adjacency returns the adjacency lists.
func (t *Tree) adjacency() [][]int {
	adj := make([][]int, t.Switches)
	for _, l := range t.Links {
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	return adj
}

// SwitchPath returns the switch sequence from the switch of station a to
// the switch of station b (inclusive; length 1 if co-located).
func (t *Tree) SwitchPath(a, b string) ([]int, error) {
	sa, ok := t.StationSwitch[a]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown station %q", a)
	}
	sb, ok := t.StationSwitch[b]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown station %q", b)
	}
	if sa == sb {
		return []int{sa}, nil
	}
	// BFS from sa recording parents.
	adj := t.adjacency()
	parent := make([]int, t.Switches)
	for i := range parent {
		parent[i] = -1
	}
	parent[sa] = sa
	queue := []int{sa}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == sb {
			break
		}
		for _, v := range adj[u] {
			if parent[v] == -1 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	if parent[sb] == -1 {
		return nil, fmt.Errorf("analysis: no path between switches %d and %d", sa, sb)
	}
	var rev []int
	for v := sb; v != sa; v = parent[v] {
		rev = append(rev, v)
	}
	rev = append(rev, sa)
	path := make([]int, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path, nil
}

// routes returns every flow's directed trunk-edge sequence along its
// unique tree path (empty for co-located endpoints). One BFS roots the
// tree at switch 0; the path between two switches climbs from each to
// their lowest common ancestor, so no flow needs a search of its own, and
// all paths share one exactly sized edge array.
func (t *Tree) routes(specs []FlowSpec) ([][]dirEdge, error) {
	parent, depth := t.rooted()
	type route struct{ from, to, hops int }
	rs := make([]route, len(specs))
	total := 0
	for i, f := range specs {
		a, ok := t.StationSwitch[f.Msg.Source]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown station %q", f.Msg.Source)
		}
		b, ok := t.StationSwitch[f.Msg.Dest]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown station %q", f.Msg.Dest)
		}
		if depth[a] < 0 || depth[b] < 0 {
			return nil, fmt.Errorf("analysis: no path between switches %d and %d", a, b)
		}
		n := 0
		for x, y := a, b; x != y; n++ {
			if depth[x] >= depth[y] {
				x = parent[x]
			} else {
				y = parent[y]
			}
		}
		rs[i] = route{a, b, n}
		total += n
	}
	edges := make([]dirEdge, total)
	paths := make([][]dirEdge, len(specs))
	for i, r := range rs {
		if r.hops == 0 {
			continue
		}
		p := edges[:r.hops:r.hops]
		edges = edges[r.hops:]
		// Climb from both ends: the source side fills p forwards, the
		// destination side backwards.
		a, b, lo, hi := r.from, r.to, 0, r.hops
		for a != b {
			if depth[a] >= depth[b] {
				p[lo] = dirEdge{a, parent[a]}
				lo++
				a = parent[a]
			} else {
				hi--
				p[hi] = dirEdge{parent[b], b}
				b = parent[b]
			}
		}
		paths[i] = p
	}
	return paths, nil
}

// rooted roots the tree at switch 0 by BFS, returning every switch's
// parent and depth (depth −1 for switches 0 cannot reach).
func (t *Tree) rooted() (parent, depth []int) {
	adj := t.adjacency()
	parent = make([]int, t.Switches)
	depth = make([]int, t.Switches)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	queue := make([]int, 1, t.Switches)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if depth[v] < 0 {
				parent[v], depth[v] = u, depth[u]+1
				queue = append(queue, v)
			}
		}
	}
	return parent, depth
}

// dirEdge is a directed trunk edge.
type dirEdge struct{ from, to int }

// compareDirEdges orders directed edges lexicographically by (from, to) —
// the deterministic tie-break of the trunk topological order. (An earlier
// revision sorted on the packed key from*1000+to, which collides once a
// tree reaches 1000 switches and silently made the processing order
// depend on map iteration order.)
func compareDirEdges(a, b dirEdge) int {
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	return cmp.Compare(a.to, b.to)
}

// trunkTopoOrder returns the directed trunk edges crossed by the flows in
// topological order under "crossed earlier by some flow" (Kahn's
// algorithm over the dependency multigraph), ties broken lexicographically
// by (from, to). The order is a pure function of the paths: deterministic
// across calls and independent of map iteration order.
func trunkTopoOrder(paths [][]dirEdge) ([]dirEdge, error) {
	deps := map[dirEdge]map[dirEdge]bool{} // e2 depends on e1 (e1 first)
	indeg := map[dirEdge]int{}
	for _, p := range paths {
		for h, e := range p {
			if _, ok := indeg[e]; !ok {
				indeg[e] = 0
			}
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
	slices.SortFunc(ready, compareDirEdges)
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
		slices.SortFunc(ready, compareDirEdges)
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("analysis: cyclic trunk dependencies — topology is not a tree")
	}
	return order, nil
}

// TreeEndToEnd bounds every connection over the tree topology. Every
// multiplexer — each source uplink, each directed trunk, each destination
// port — is evaluated once from the per-class sums of the curves entering
// it, and every member reads its bound from that table.
func TreeEndToEnd(set *traffic.Set, approach Approach, cfg Config, tree *Tree) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, fmt.Errorf("analysis: nil tree")
	}
	if err := tree.Validate(set.Stations()); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)

	// Per-flow directed edge sequences, and the undirected link index of
	// every edge (for the per-trunk rate and propagation overrides).
	linkIdx := map[dirEdge]int{}
	for i, l := range tree.Links {
		linkIdx[dirEdge{l[0], l[1]}] = i
		linkIdx[dirEdge{l[1], l[0]}] = i
	}
	paths, err := tree.routes(specs)
	if err != nil {
		return nil, err
	}
	// accessCfg prices a station's access link — its uplink or its
	// destination port — at the station's own rate.
	accessCfg := func(ttechno simtime.Duration) func(string) Config {
		return func(st string) Config {
			c := cfg
			c.LinkRate = tree.StationRate(st, cfg.LinkRate)
			c.TTechno = ttechno
			return c
		}
	}

	// Stage 1: source uplinks, each at the station's access-link rate.
	// Propagation delays are constant shifts: they accumulate into fixed[i]
	// (added to bound and floor alike) without inflating any arrival curve.
	src := groupByStation(specs, sourceOf)
	srcTables := src.tables(specs, approach, accessCfg(0))
	stage1 := make([]simtime.Duration, len(specs))
	fixed := make([]simtime.Duration, len(specs))
	current := make([]FlowSpec, len(specs)) // spec after the last processed stage
	for i, f := range specs {
		d, err := srcTables[src.of[i]].delay(f)
		if err != nil {
			return nil, fmt.Errorf("station %s: %w", f.Msg.Source, err)
		}
		stage1[i] = d
		fixed[i] = tree.StationProp(f.Msg.Source)
		current[i] = inflate(f, d)
	}

	// Topological order of directed edges under "crossed earlier by some
	// flow", and the flows crossing each edge.
	edgeFlows := map[dirEdge][]int{}
	for i, p := range paths {
		for _, e := range p {
			edgeFlows[e] = append(edgeFlows[e], i)
		}
	}
	order, err := trunkTopoOrder(paths)
	if err != nil {
		return nil, err
	}

	// Stage 2: trunk multiplexers in dependency order, each at its trunk's
	// capacity. The table is evaluated over the entering curves before any
	// member is inflated, so every flow sees its peers' entering curves,
	// not their exits.
	trunkDelay := make([]simtime.Duration, len(specs)) // accumulated per flow
	for _, e := range order {
		li, ok := linkIdx[e]
		if !ok {
			return nil, fmt.Errorf("analysis: no link for trunk %d→%d", e.from, e.to)
		}
		edgeCfg := cfg
		edgeCfg.LinkRate = tree.TrunkRate(li, cfg.LinkRate)
		flows := edgeFlows[e]
		var sums classSums
		for _, i := range flows {
			sums.add(current[i])
		}
		tbl := sums.table(approach, edgeCfg)
		for _, i := range flows {
			d, err := tbl.delay(current[i])
			if err != nil {
				return nil, fmt.Errorf("trunk %d→%d: %w", e.from, e.to, err)
			}
			trunkDelay[i] += d
			fixed[i] += tree.TrunkProp(li)
			current[i] = inflate(current[i], d)
		}
	}

	// Stage 3: destination ports, serializing onto the destination
	// station's access link.
	dst := groupByStation(specs, destOf)
	dstTables := dst.tables(current, approach, accessCfg(cfg.TTechno))
	res := &Result{Approach: approach, Cfg: cfg}
	if len(specs) > 0 {
		res.Flows = make([]PathBound, 0, len(specs))
	}
	for i, f := range specs {
		d, err := dstTables[dst.of[i]].delay(current[i])
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", f.Msg.Dest, err)
		}
		fixed[i] += tree.StationProp(f.Msg.Dest)
		hops := len(paths[i]) + 2 // uplink + trunks + dest port
		// The floor crosses each hop's own serialization rate.
		floor := simtime.TransmissionTime(f.B, tree.StationRate(f.Msg.Source, cfg.LinkRate)) +
			simtime.TransmissionTime(f.B, tree.StationRate(f.Msg.Dest, cfg.LinkRate)) +
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
