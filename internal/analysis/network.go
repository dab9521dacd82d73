package analysis

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file lifts the per-multiplexer bounds to the network architecture:
// every station shapes and multiplexes its connections onto its uplink
// (source multiplexer), the switch relays within t_techno, and connections
// bound for the same station converge in that station's switch output port
// (destination multiplexer) — the congestion point of the paper's
// many-to-one avionics traffic.
//
// Two analyses are provided:
//
//   - SingleHop: the paper-faithful computation. One multiplexer per
//     destination port, the closed-form D or D_p over the connections
//     crossing it, t_techno added once. This is what Figure 1 plots.
//
//   - TreeEndToEnd (tree.go): a compositional refinement (this
//     reproduction's extension) over any switch tree, the paper's star
//     included. Each multiplexer on a connection's path — source uplink,
//     trunks, destination port — is bounded in turn, and the connection's
//     token bucket is inflated to its output arrival curve
//     (bᵢ' = bᵢ + rᵢ·D, the standard delay-jitter transformation) before
//     the next one. The stages are summed, so the bound is sound for the
//     whole path and dominates the single-hop figure.

// PathBound is the analysis outcome for one connection.
type PathBound struct {
	// Spec is the connection's flow spec.
	Spec FlowSpec
	// SourceDelay bounds the wait in the source station's multiplexer
	// (zero in single-hop analysis).
	SourceDelay simtime.Duration
	// PortDelay bounds the wait in the switch output ports on the path —
	// every trunk multiplexer and the destination port — each including
	// the relaying latency t_techno.
	PortDelay simtime.Duration
	// EndToEnd is the total response-time bound.
	EndToEnd simtime.Duration
	// Floor is the smallest achievable latency (pure serialization plus
	// relaying) — D_min for the jitter bound.
	Floor simtime.Duration
	// Jitter is EndToEnd − Floor, the paper's future-work metric.
	Jitter simtime.Duration
	// Met reports whether EndToEnd ≤ the connection's deadline.
	Met bool
}

// Result is a full network analysis under one approach.
type Result struct {
	Approach Approach
	Cfg      Config
	// Flows holds one PathBound per connection, in catalog order.
	Flows []PathBound
	// ClassWorst is the largest end-to-end bound per priority class.
	ClassWorst [traffic.NumPriorities]simtime.Duration
	// Violations counts connections whose deadline is not met.
	Violations int
}

// ByName returns the PathBound of a connection.
func (r *Result) ByName(name string) (PathBound, bool) {
	for _, f := range r.Flows {
		if f.Spec.Msg.Name == name {
			return f, true
		}
	}
	return PathBound{}, false
}

// ViolatedNames lists the connections missing their deadlines, sorted.
func (r *Result) ViolatedNames() []string {
	var out []string
	for _, f := range r.Flows {
		if !f.Met {
			out = append(out, f.Spec.Msg.Name)
		}
	}
	sort.Strings(out)
	return out
}

// SingleHop runs the paper-faithful analysis: each connection's bound is
// the closed-form latency of its destination multiplexer (all connections
// converging on the same station), t_techno included.
func SingleHop(set *traffic.Set, approach Approach, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	specs := Specs(set, cfg)
	dst := groupByStation(specs, destOf)
	tables := dst.tables(specs, approach, func(string) Config { return cfg })

	res := &Result{Approach: approach, Cfg: cfg}
	for i, f := range specs {
		d, err := tables[dst.of[i]].delay(f)
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", f.Msg.Dest, err)
		}
		pb := PathBound{
			Spec:      f,
			PortDelay: d,
			EndToEnd:  d,
			Floor:     TransmissionFloor(f, cfg),
		}
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(f.Msg.Deadline)
		res.add(pb)
	}
	return res, nil
}

// stationGroups assigns every flow to a per-station multiplexer (its
// source uplink or its destination port), numbered in order of first
// appearance: of[i] is flow i's multiplexer and stations[g] the station
// of multiplexer g.
type stationGroups struct {
	of       []int
	stations []string
}

func sourceOf(m *traffic.Message) string { return m.Source }
func destOf(m *traffic.Message) string   { return m.Dest }

// groupByStation groups the flows by station(flow).
func groupByStation(specs []FlowSpec, station func(*traffic.Message) string) stationGroups {
	ids := map[string]int{}
	g := stationGroups{of: make([]int, len(specs))}
	for i, f := range specs {
		st := station(f.Msg)
		id, ok := ids[st]
		if !ok {
			id = len(g.stations)
			ids[st] = id
			g.stations = append(g.stations, st)
		}
		g.of[i] = id
	}
	return g
}

// tables sums the flows' current curves (curves[i] for flow i) per
// multiplexer and evaluates each multiplexer once, at the configuration
// cfgOf returns for its station.
func (g stationGroups) tables(curves []FlowSpec, approach Approach, cfgOf func(station string) Config) []muxTable {
	sums := make([]classSums, len(g.stations))
	for i, f := range curves {
		sums[g.of[i]].add(f)
	}
	out := make([]muxTable, len(sums))
	for k := range sums {
		out[k] = sums[k].table(approach, cfgOf(g.stations[k]))
	}
	return out
}

// inflate applies the delay-jitter output transformation: a (b, r) flow
// delayed by at most d becomes (b + r·d, r)-constrained.
func inflate(f FlowSpec, d simtime.Duration) FlowSpec {
	extra := simtime.Size(math.Ceil(float64(f.R.BitsPerSecond()) * d.Seconds()))
	return FlowSpec{Msg: f.Msg, B: f.B + extra, R: f.R}
}

// add appends a PathBound and maintains the aggregates.
func (r *Result) add(pb PathBound) {
	r.Flows = append(r.Flows, pb)
	p := pb.Spec.Msg.Priority
	if pb.EndToEnd > r.ClassWorst[p] {
		r.ClassWorst[p] = pb.EndToEnd
	}
	if !pb.Met {
		r.Violations++
	}
}

// groupBy partitions specs by a key.
func groupBy(specs []FlowSpec, key func(FlowSpec) string) map[string][]FlowSpec {
	out := map[string][]FlowSpec{}
	for _, f := range specs {
		out[key(f)] = append(out[key(f)], f)
	}
	return out
}
