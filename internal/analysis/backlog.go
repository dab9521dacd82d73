package analysis

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file prices the buffer of EVERY multiplexing point of a switched
// network — the per-switch memory budget the paper's dimensioning story
// needs. A directed edge of the architecture owns exactly one queue:
//
//	station → switch   the station's uplink multiplexer
//	switch  → switch   a trunk output port (each direction separately)
//	switch  → station  the destination output port
//
// Each queue's backlog is bounded by the vertical deviation of the
// aggregate arrival curve of the flows the tree routing sends through it
// against the edge's own rate-latency service (its link rate, with the
// relaying latency t_techno in front of switch-resident queues and zero
// latency in front of a station's uplink, which no relay precedes).
//
// The arrival curves are the flows' source token buckets (bᵢ, rᵢ) — the
// paper's single-hop pricing convention, so a destination edge's bound
// depends only on the connections converging on that port, whatever the
// architecture. For token-bucket aggregates the vertical deviation
// against β_{C,T} is Σbᵢ + (Σrᵢ)·T whenever the edge is stable
// (Σrᵢ ≤ C), so the bound is independent of the link rate itself;
// per-edge rate overrides and per-plane rate scales still matter, because
// they decide stability — an over-subscribed edge has no finite backlog
// bound and is reported Unstable instead of silently priced.

// EdgeKind classifies a directed edge by the queue it owns.
type EdgeKind int

const (
	// EdgeUplink is a station→switch edge: the source multiplexer queue
	// in the station.
	EdgeUplink EdgeKind = iota
	// EdgeTrunk is a switch→switch edge: a trunk output port.
	EdgeTrunk
	// EdgeDest is a switch→station edge: the destination output port.
	EdgeDest
)

// String returns the kind name.
func (k EdgeKind) String() string {
	switch k {
	case EdgeUplink:
		return "uplink"
	case EdgeTrunk:
		return "trunk"
	case EdgeDest:
		return "dest"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// EdgeBacklog is the dimensioning verdict of one directed edge.
type EdgeBacklog struct {
	// Kind classifies the edge (uplink, trunk, dest).
	Kind EdgeKind
	// From and To name the endpoints: stations by name, switches as
	// "sw<id>".
	From, To string
	// Switch is the switch the edge touches: the home switch for station
	// edges, the transmitting switch for trunks — the switch whose memory
	// budget the queue belongs to for EdgeTrunk and EdgeDest (an uplink
	// queue lives in the station itself).
	Switch int
	// Link is the undirected trunk index (Tree.Links) for EdgeTrunk, -1
	// otherwise.
	Link int
	// Bound is the worst-case queue occupancy in bits (0 when no flow
	// crosses the edge). Meaningless when Unstable.
	Bound simtime.Size
	// Unstable reports an over-subscribed edge (Σrᵢ exceeds the edge's
	// rate): no finite backlog bound exists.
	Unstable bool
	// Flows lists the connections routed through the edge, in catalog
	// order.
	Flows []string
}

// Key renders the edge as its canonical directed-edge key "from->to" —
// the currency shared with the simulator's observed high-water marks
// (core.SimResult.PortMaxBacklog) and the scenario's per-port queue
// capacities (sim section queue_capacities_bytes).
func (e EdgeBacklog) Key() string { return e.From + "->" + e.To }

// EdgeBacklogResult is the per-edge dimensioning table of one network
// plane.
type EdgeBacklogResult struct {
	Cfg Config
	// Edges holds every directed edge, in deterministic order: uplinks by
	// station name, trunks by link index (forward then reverse direction),
	// destination ports by station name.
	Edges []EdgeBacklog

	// index maps edge keys to Edges positions, built on first ByKey —
	// lookups over the whole table (capacity derivation, bound resolution
	// per simulated queue) would otherwise rescan Edges per query.
	index map[string]int
}

// ByKey returns the edge with the given key. The first call indexes the
// table; callers that append to Edges afterwards must not rely on ByKey
// seeing the additions.
func (r *EdgeBacklogResult) ByKey(key string) (EdgeBacklog, bool) {
	if r.index == nil {
		r.index = make(map[string]int, len(r.Edges))
		for i, e := range r.Edges {
			r.index[e.Key()] = i
		}
	}
	i, ok := r.index[key]
	if !ok {
		return EdgeBacklog{}, false
	}
	return r.Edges[i], true
}

// SwitchTotal sums the bounds of the switch-resident queues of one switch
// (destination and trunk output ports — uplink queues live in stations),
// reporting whether any of them is unstable and how many edges contribute.
func (r *EdgeBacklogResult) SwitchTotal(sw int) (total simtime.Size, edges int, unstable bool) {
	for _, e := range r.Edges {
		if e.Kind == EdgeUplink || e.Switch != sw {
			continue
		}
		edges++
		total += e.Bound
		unstable = unstable || e.Unstable
	}
	return total, edges, unstable
}

// swName renders a switch id as its report name.
func swName(id int) string { return fmt.Sprintf("sw%d", id) }

// EdgeBacklogs bounds the backlog of every directed edge of the tree for
// the workload: every station uplink, every trunk in both directions,
// every destination port. Per-trunk and per-station rate overrides are
// honored (they decide per-edge stability); the destination edges are the
// switch's per-port buffer dimensioning table. Each edge is priced by the
// closed form Σbᵢ + Σrᵢ·t_techno over its members' sums.
func EdgeBacklogs(set *traffic.Set, cfg Config, tree *Tree) (*EdgeBacklogResult, error) {
	return edgeBacklogs(set, cfg, tree, nil)
}

// EdgeBacklogsNC is EdgeBacklogs with every edge priced through the
// generic network calculus (BacklogBoundNC) — the oracle the closed form
// must reproduce bit for bit, instability included.
func EdgeBacklogsNC(set *traffic.Set, cfg Config, tree *Tree) (*EdgeBacklogResult, error) {
	return edgeBacklogs(set, cfg, tree, BacklogBoundNC)
}

// edgeBacklogs enumerates and prices every directed edge, through the
// closed form when oracle is nil and through oracle otherwise.
func edgeBacklogs(set *traffic.Set, cfg Config, tree *Tree, oracle func([]FlowSpec, Config) (simtime.Size, error)) (*EdgeBacklogResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, fmt.Errorf("analysis: nil tree")
	}
	stations := set.Stations()
	if err := tree.Validate(stations); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)

	// The members of every queue, as flow indices in catalog order: route
	// every flow once for the trunks.
	paths, err := tree.routes(specs)
	if err != nil {
		return nil, err
	}
	trunkFlows := map[dirEdge][]int{}
	bySource, byDest := map[string][]int{}, map[string][]int{}
	for i, f := range specs {
		for _, e := range paths[i] {
			trunkFlows[e] = append(trunkFlows[e], i)
		}
		bySource[f.Msg.Source] = append(bySource[f.Msg.Source], i)
		byDest[f.Msg.Dest] = append(byDest[f.Msg.Dest], i)
	}

	res := &EdgeBacklogResult{Cfg: cfg, Edges: make([]EdgeBacklog, 0, 2*len(stations)+2*len(tree.Links))}
	price := func(e EdgeBacklog, members []int, rate simtime.Rate, ttechno simtime.Duration) error {
		edgeCfg := cfg
		edgeCfg.LinkRate = rate
		edgeCfg.TTechno = ttechno
		var sums classSums
		if len(members) > 0 {
			e.Flows = make([]string, len(members))
		}
		for k, i := range members {
			e.Flows[k] = specs[i].Msg.Name
			sums.add(specs[i])
		}
		var b simtime.Size
		var err error
		if oracle == nil {
			b, err = sums.backlog(edgeCfg)
		} else {
			flows := make([]FlowSpec, len(members))
			for k, i := range members {
				flows[k] = specs[i]
			}
			b, err = oracle(flows, edgeCfg)
		}
		switch {
		case errors.Is(err, ErrUnstable):
			e.Unstable = true
		case err != nil:
			return fmt.Errorf("edge %s: %w", e.Key(), err)
		default:
			e.Bound = b
		}
		res.Edges = append(res.Edges, e)
		return nil
	}

	// Station uplinks: the queue is fed directly by the shapers, no relay
	// in front of it, so the service has zero latency (matching the source
	// stage of the delay composition).
	for _, st := range stations {
		home := tree.StationSwitch[st]
		e := EdgeBacklog{Kind: EdgeUplink, From: st, To: swName(home), Switch: home, Link: -1}
		if err := price(e, bySource[st], tree.StationRate(st, cfg.LinkRate), 0); err != nil {
			return nil, err
		}
	}
	// Trunks, both directions per link, in link order.
	for li, l := range tree.Links {
		for _, d := range []dirEdge{{l[0], l[1]}, {l[1], l[0]}} {
			e := EdgeBacklog{Kind: EdgeTrunk, From: swName(d.from), To: swName(d.to), Switch: d.from, Link: li}
			if err := price(e, trunkFlows[d], tree.TrunkRate(li, cfg.LinkRate), cfg.TTechno); err != nil {
				return nil, err
			}
		}
	}
	// Destination ports, per station, at the station's own access-link
	// rate.
	for _, st := range stations {
		home := tree.StationSwitch[st]
		e := EdgeBacklog{Kind: EdgeDest, From: swName(home), To: st, Switch: home, Link: -1}
		if err := price(e, byDest[st], tree.StationRate(st, cfg.LinkRate), cfg.TTechno); err != nil {
			return nil, err
		}
	}
	return res, nil
}
