package topology

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// Network is the general architecture description driving the unified
// simulator (core.SimulateNetwork): a set of switches joined by full-duplex
// trunks into a tree, every station placed on one switch, and optionally
// several independent redundant planes (the dual-network ARINC 664 shape:
// each frame is sent on every plane, the receiver keeps the first copy).
//
// The star, cascaded two-switch, switch-tree, daisy-chain and
// dual-redundant architectures are all instances of this one description,
// which is what guarantees every SimConfig knob behaves identically on
// every architecture.
type Network struct {
	// Name labels the topology in reports.
	Name string
	// Switches is the number of switches per plane, identified 0..n-1.
	Switches int
	// Links are the undirected switch-to-switch trunks; a valid network has
	// exactly Switches−1 of them, connected (a tree — avionics backbones
	// are loop-free by construction, and tree routing is unique).
	Links [][2]int
	// StationSwitch maps every station to its home switch.
	StationSwitch map[string]int
	// Planes is the number of independent redundant copies of the whole
	// fabric (0 or 1 = a single network, 2 = dual-redundant).
	Planes int
	// PlaneSpecs optionally configures each redundant plane individually:
	// PlaneSpecs[p] applies to plane p. Nil means identical planes — the
	// classic dual network releasing simultaneous copies over equal
	// fabrics. When set, its length must equal PlaneCount (and the network
	// must be redundant: per-plane knobs on a single network would
	// silently re-parameterize every link).
	PlaneSpecs []PlaneSpec

	// TrunkRates optionally overrides the capacity of individual trunks:
	// TrunkRates[i] is the rate of Links[i], 0 meaning the scenario's
	// default link rate. Nil (or shorter than Links) leaves the remaining
	// trunks at the default.
	TrunkRates []simtime.Rate
	// TrunkProps holds per-trunk propagation delays (TrunkProps[i] for
	// Links[i]; missing entries are 0).
	TrunkProps []simtime.Duration
	// StationRates optionally overrides the full-duplex access-link rate
	// of individual stations (uplink and switch output port alike).
	StationRates map[string]simtime.Rate
	// StationProps holds per-station access-link propagation delays.
	StationProps map[string]simtime.Duration

	// nextHop caches the routing table built by NextHops (built once
	// under nhMu; a Network may be shared by concurrent sweep workers).
	// UnmarshalJSON invalidates the cache, so a reused Network value
	// never routes with a previous topology's table.
	nhMu    sync.Mutex
	nhDone  bool
	nextHop [][]int
	nhErr   error

	// et caches the edge-interning table (see edges.go), invalidated
	// alongside the routing cache by UnmarshalJSON.
	etMu sync.Mutex
	et   *edgeTable
}

// TrunkRate returns the capacity of trunk i, falling back to def.
func (n *Network) TrunkRate(i int, def simtime.Rate) simtime.Rate {
	if i < len(n.TrunkRates) && n.TrunkRates[i] > 0 {
		return n.TrunkRates[i]
	}
	return def
}

// TrunkProp returns the propagation delay of trunk i (0 if unset).
func (n *Network) TrunkProp(i int) simtime.Duration {
	if i < len(n.TrunkProps) {
		return n.TrunkProps[i]
	}
	return 0
}

// StationRate returns the access-link rate of a station, falling back to
// def.
func (n *Network) StationRate(name string, def simtime.Rate) simtime.Rate {
	if r, ok := n.StationRates[name]; ok && r > 0 {
		return r
	}
	return def
}

// StationProp returns the access-link propagation delay of a station.
func (n *Network) StationProp(name string) simtime.Duration {
	return n.StationProps[name]
}

// PlaneCount normalizes Planes (0 means one plane).
func (n *Network) PlaneCount() int {
	if n.Planes < 1 {
		return 1
	}
	return n.Planes
}

// Redundant reports whether the network has more than one plane.
func (n *Network) Redundant() bool { return n.PlaneCount() > 1 }

// PlaneSpec configures one redundant plane of a network. The zero value
// is the identical-plane default: full rate, no skew, operational. Real
// dual networks are never perfectly symmetric — plane B runs over longer
// cable trays (propagation skew), its end systems release the duplicate
// copy a little later (phase skew), and degraded or failed planes are
// exactly what the redundancy exists to survive.
type PlaneSpec struct {
	// RateScale scales every link rate on this plane — trunks and station
	// access links, default-rate links included. 0 means 1.0 (unscaled);
	// 0.5 models a plane negotiated down to half rate.
	RateScale float64
	// PhaseSkew delays the release of this plane's copy of every frame
	// relative to the application release.
	PhaseSkew simtime.Duration
	// PropSkew is an additional propagation delay on every link of this
	// plane (the longer cable run of the redundant loom).
	PropSkew simtime.Duration
	// Fail marks the plane as failed: it carries no traffic at all.
	Fail bool
}

// MaxRateScale bounds PlaneSpec.RateScale: large enough for any physical
// speed-grade asymmetry, small enough that scaling can never overflow an
// int64 rate (Validate enforces it).
const MaxRateScale = 1e6

// Zero reports whether the spec is the identical-plane default.
func (s PlaneSpec) Zero() bool { return s == PlaneSpec{} }

// ScaleRate applies the plane's rate scale to a link rate, rounding to
// the nearest bit per second (and never below 1). The simulator and the
// per-plane analysis tree both price links through this one function, so
// a scaled plane is simulated at exactly the rate it is analyzed at.
func (s PlaneSpec) ScaleRate(r simtime.Rate) simtime.Rate {
	if s.RateScale == 0 || s.RateScale == 1 {
		return r
	}
	scaled := simtime.Rate(math.Round(float64(r) * s.RateScale))
	if scaled < simtime.BitPerSecond {
		scaled = simtime.BitPerSecond
	}
	return scaled
}

// Plane returns plane p's spec (the identical-plane default when unset).
func (n *Network) Plane(p int) PlaneSpec {
	if p < len(n.PlaneSpecs) {
		return n.PlaneSpecs[p]
	}
	return PlaneSpec{}
}

// Skewed reports whether any plane diverges from the identical-plane
// default (skew, rate scale or failure).
func (n *Network) Skewed() bool {
	for _, s := range n.PlaneSpecs {
		if !s.Zero() {
			return true
		}
	}
	return false
}

// SurvivingPlanes counts the planes not marked failed.
func (n *Network) SurvivingPlanes() int {
	alive := n.PlaneCount()
	for _, s := range n.PlaneSpecs {
		if s.Fail {
			alive--
		}
	}
	return alive
}

// PlaneFailed reports whether plane p is marked failed.
func (n *Network) PlaneFailed(p int) bool { return n.Plane(p).Fail }

// PlanePhaseSkew returns plane p's release offset.
func (n *Network) PlanePhaseSkew(p int) simtime.Duration { return n.Plane(p).PhaseSkew }

// PlaneTrunkRate returns the capacity of trunk i on plane p: the trunk's
// own rate (or def) scaled by the plane's rate scale.
func (n *Network) PlaneTrunkRate(p, i int, def simtime.Rate) simtime.Rate {
	return n.Plane(p).ScaleRate(n.TrunkRate(i, def))
}

// PlaneTrunkProp returns the propagation delay of trunk i on plane p,
// the plane's propagation skew included.
func (n *Network) PlaneTrunkProp(p, i int) simtime.Duration {
	return n.TrunkProp(i) + n.Plane(p).PropSkew
}

// PlaneStationRate returns the access-link rate of a station on plane p.
func (n *Network) PlaneStationRate(p int, name string, def simtime.Rate) simtime.Rate {
	return n.Plane(p).ScaleRate(n.StationRate(name, def))
}

// PlaneStationProp returns the access-link propagation delay of a
// station on plane p, the plane's propagation skew included.
func (n *Network) PlaneStationProp(p int, name string) simtime.Duration {
	return n.StationProp(name) + n.Plane(p).PropSkew
}

// Validate checks structure and station coverage, mirroring
// analysis.Tree.Validate plus the plane count. A network that places no
// station at all is rejected here, descriptively, instead of failing deep
// inside routing or simulation setup — Star(nil) and Chain(nil, k) produce
// such networks, and the empty workload they imply is never intentional.
func (n *Network) Validate(stations []string) error {
	if n == nil {
		return fmt.Errorf("topology: nil network")
	}
	if len(n.StationSwitch) == 0 {
		return fmt.Errorf("topology: network %q places no stations (empty station list?)", n.Name)
	}
	if n.Planes < 0 {
		return fmt.Errorf("topology: negative plane count %d", n.Planes)
	}
	for _, s := range slices.Sorted(maps.Keys(n.StationSwitch)) {
		if sw := n.StationSwitch[s]; sw < 0 || sw >= n.Switches {
			return fmt.Errorf("topology: station %q on invalid switch %d", s, sw)
		}
	}
	if len(n.PlaneSpecs) > 0 {
		if !n.Redundant() {
			return fmt.Errorf("topology: plane specs on a single-plane network")
		}
		if len(n.PlaneSpecs) != n.PlaneCount() {
			return fmt.Errorf("topology: %d plane specs for %d planes", len(n.PlaneSpecs), n.PlaneCount())
		}
		for p, s := range n.PlaneSpecs {
			// MaxRateScale keeps ScaleRate's float arithmetic far from
			// int64 overflow (1e6 × 1 Gbps ≪ MaxInt64); an absurd scale
			// is a configuration error that must fail at load, not wrap
			// into a silently wrong link rate.
			if s.RateScale < 0 || s.RateScale > MaxRateScale {
				return fmt.Errorf("topology: plane %d: rate scale %g outside [0, %g]", p, s.RateScale, float64(MaxRateScale))
			}
			if s.PhaseSkew < 0 {
				return fmt.Errorf("topology: plane %d: negative phase skew %v", p, s.PhaseSkew)
			}
			if s.PropSkew < 0 {
				return fmt.Errorf("topology: plane %d: negative propagation skew %v", p, s.PropSkew)
			}
		}
		if n.SurvivingPlanes() == 0 {
			return fmt.Errorf("topology: every plane of %q is marked failed", n.Name)
		}
	}
	if err := n.Tree().Validate(stations); err != nil {
		return err
	}
	return nil
}

// Tree views one plane of the network as the analysis topology: bounds are
// computed per plane, and every plane is identical, so the single-plane
// tree bound covers redundant networks too (the first delivered copy is
// never later than any fixed plane's copy). Per-link rate and propagation
// overrides carry over, so the bounds price each hop at its own capacity.
func (n *Network) Tree() *analysis.Tree {
	return &analysis.Tree{
		Switches:      n.Switches,
		Links:         n.Links,
		StationSwitch: n.StationSwitch,
		TrunkRates:    n.TrunkRates,
		TrunkProps:    n.TrunkProps,
		StationRates:  n.StationRates,
		StationProps:  n.StationProps,
	}
}

// PlaneTree views one plane as an analysis topology with the plane's
// spec materialized: every trunk and station rate is explicit (the rate
// scale applies to default-rate links too, which is why the caller's
// default link rate is needed) and the plane's propagation skew is
// folded into every link delay. A zero-valued spec prices exactly like
// Tree(). The phase skew is NOT part of the tree — it is a release
// offset, handled by the redundant composition (analysis.Plane).
func (n *Network) PlaneTree(p int, def simtime.Rate) *analysis.Tree {
	t := n.Tree()
	if n.Plane(p).Zero() {
		return t
	}
	rates := make([]simtime.Rate, len(n.Links))
	props := make([]simtime.Duration, len(n.Links))
	for i := range n.Links {
		rates[i] = n.PlaneTrunkRate(p, i, def)
		props[i] = n.PlaneTrunkProp(p, i)
	}
	srates := make(map[string]simtime.Rate, len(n.StationSwitch))
	sprops := make(map[string]simtime.Duration, len(n.StationSwitch))
	//rtlint:unordered map fill, one key at a time
	for s := range n.StationSwitch {
		srates[s] = n.PlaneStationRate(p, s, def)
		sprops[s] = n.PlaneStationProp(p, s)
	}
	t.TrunkRates, t.TrunkProps = rates, props
	t.StationRates, t.StationProps = srates, sprops
	return t
}

// AnalysisPlanes describes every plane of the network for the redundant
// first-copy composition (analysis.RedundantEndToEnd and
// analysis.DegradedEndToEnd): the plane's materialized tree, its release
// phase skew, and whether it is failed.
func (n *Network) AnalysisPlanes(def simtime.Rate) []analysis.Plane {
	planes := make([]analysis.Plane, n.PlaneCount())
	for p := range planes {
		planes[p] = analysis.Plane{
			Tree:      n.PlaneTree(p, def),
			PhaseSkew: n.PlanePhaseSkew(p),
			Failed:    n.PlaneFailed(p),
		}
	}
	return planes
}

// PlaneKeyPrefix returns the "n<p>." queue-key prefix of plane p (empty
// when the network has a single plane, whose keys are unqualified) —
// matching the simulator's plane-qualified switch names.
func PlaneKeyPrefix(p, planes int) string {
	if planes > 1 {
		return fmt.Sprintf("n%d.", p)
	}
	return ""
}

// SplitPlaneKey parses an optional "n<p>." plane prefix off a queue key
// against the given plane count: it returns the plane index (0 when the
// key is unqualified) and the bare edge key. ok is false when the key
// carries a prefix naming a plane outside [0, planes) — including any
// prefix at all on a single-plane network, whose keys are never
// qualified. This is the single parser of the prefix grammar; every
// consumer (scenario validation, bound lookup) goes through it.
func SplitPlaneKey(key string, planes int) (plane int, bare string, ok bool) {
	if strings.HasPrefix(key, "n") {
		if dot := strings.Index(key, "."); dot > 1 {
			if p, err := strconv.Atoi(key[1:dot]); err == nil {
				// Only the canonical spelling resolves: "n01." or "n+1."
				// would pass Atoi but never match the "n<p>." keys the
				// simulator writes and reads, so a capacity under such a
				// key would be silently ignored — reject it here instead.
				if planes <= 1 || p < 0 || p >= planes || strconv.Itoa(p) != key[1:dot] {
					return 0, key, false
				}
				return p, key[dot+1:], true
			}
		}
	}
	return 0, key, true
}

// NextHops returns (building once, then cached) the static routing table:
// next[s][t] is the neighbour of switch s on the unique tree path toward
// switch t, and next[s][s] == s. One BFS per switch, run once per topology
// — simulators must never recompute paths per (station, switch) pair.
func (n *Network) NextHops() ([][]int, error) {
	n.nhMu.Lock()
	defer n.nhMu.Unlock()
	if !n.nhDone {
		n.nextHop, n.nhErr = n.buildNextHops()
		n.nhDone = true
	}
	return n.nextHop, n.nhErr
}

// invalidateRouting drops the cached routing table (after the topology
// changed under deserialization).
func (n *Network) invalidateRouting() {
	n.nhMu.Lock()
	n.nhDone, n.nextHop, n.nhErr = false, nil, nil
	n.nhMu.Unlock()
}

func (n *Network) buildNextHops() ([][]int, error) {
	adj := make([][]int, n.Switches)
	for _, l := range n.Links {
		a, b := l[0], l[1]
		if a < 0 || a >= n.Switches || b < 0 || b >= n.Switches || a == b {
			return nil, fmt.Errorf("topology: invalid link %v", l)
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	next := make([][]int, n.Switches)
	for s := 0; s < n.Switches; s++ {
		row := make([]int, n.Switches)
		for i := range row {
			row[i] = -1
		}
		row[s] = s
		// BFS from s; firstHop[v] is the neighbour of s that discovered
		// the branch containing v.
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if row[v] != -1 {
					continue
				}
				if u == s {
					row[v] = v
				} else {
					row[v] = row[u]
				}
				queue = append(queue, v)
			}
		}
		for t, h := range row {
			if h == -1 {
				return nil, fmt.Errorf("topology: switch %d unreachable from %d", t, s)
			}
		}
		next[s] = row
	}
	return next, nil
}

// Star returns the paper's architecture: every station on one switch.
func Star(stations []string) *Network {
	n := &Network{Name: "star", Switches: 1, StationSwitch: map[string]int{}}
	for _, s := range stations {
		n.StationSwitch[s] = 0
	}
	return n
}

// Cascade returns a two-switch trunk topology with stations assigned by
// the given function (values 0 and 1) — e.g. FuselageSplit.
func Cascade(stations []string, assign func(string) int) *Network {
	n := &Network{Name: "cascade", Switches: 2, Links: [][2]int{{0, 1}}, StationSwitch: map[string]int{}}
	for _, s := range stations {
		n.StationSwitch[s] = assign(s)
	}
	return n
}

// FuselageSplit assigns the real-case stations to a cascade's two
// switches by fuselage section: the mission computer, the displays and
// their feeders (navigation, air data) front on switch 0, every other
// station aft on switch 1.
func FuselageSplit(station string) int {
	switch station {
	case traffic.StationMC, traffic.StationDisplay, traffic.StationNav, traffic.StationADC:
		return 0
	default:
		return 1
	}
}

// Chain returns a daisy-chain backbone of the given length — the line
// topology the paper's future-work section gestures at (equipment bays
// strung along the fuselage). Stations are spread over the switches in
// sorted order, contiguously, so placement is deterministic for any
// workload.
func Chain(stations []string, switches int) *Network {
	if switches < 1 {
		switches = 1
	}
	n := &Network{Name: fmt.Sprintf("chain%d", switches), Switches: switches, StationSwitch: map[string]int{}}
	for i := 0; i+1 < switches; i++ {
		n.Links = append(n.Links, [2]int{i, i + 1})
	}
	sorted := append([]string(nil), stations...)
	sort.Strings(sorted)
	for i, s := range sorted {
		n.StationSwitch[s] = i * switches / len(sorted)
	}
	return n
}

// Clone returns a deep copy of the network: links, placements, plane
// specs and per-link overrides are all copied, the caches are not —
// mutating the clone never silently changes the original (or invalidates
// its cached routing table).
func (n *Network) Clone() *Network {
	return &Network{
		Name:          n.Name,
		Switches:      n.Switches,
		Links:         append([][2]int(nil), n.Links...),
		StationSwitch: cloneMap(n.StationSwitch),
		Planes:        n.Planes,
		PlaneSpecs:    append([]PlaneSpec(nil), n.PlaneSpecs...),
		TrunkRates:    append([]simtime.Rate(nil), n.TrunkRates...),
		TrunkProps:    append([]simtime.Duration(nil), n.TrunkProps...),
		StationRates:  cloneMap(n.StationRates),
		StationProps:  cloneMap(n.StationProps),
	}
}

// Redundify returns a copy of base with the given number of independent
// planes — the dual-redundant AFDX-style network for planes = 2. Links
// and placements are cloned so mutating either network never silently
// changes the other (or invalidates its cached routing table).
func Redundify(base *Network, planes int) *Network {
	placement := make(map[string]int, len(base.StationSwitch))
	//rtlint:unordered map fill, one key at a time
	for s, sw := range base.StationSwitch {
		placement[s] = sw
	}
	n := &Network{
		Name:          fmt.Sprintf("dual-%s", base.Name),
		Switches:      base.Switches,
		Links:         append([][2]int(nil), base.Links...),
		StationSwitch: placement,
		Planes:        planes,
		PlaneSpecs:    append([]PlaneSpec(nil), base.PlaneSpecs...),
		TrunkRates:    append([]simtime.Rate(nil), base.TrunkRates...),
		TrunkProps:    append([]simtime.Duration(nil), base.TrunkProps...),
		StationRates:  cloneMap(base.StationRates),
		StationProps:  cloneMap(base.StationProps),
	}
	if planes != 2 {
		n.Name = fmt.Sprintf("%s-x%d", base.Name, planes)
	}
	return n
}

// cloneMap copies a nilable override map, preserving nil.
func cloneMap[V any](m map[string]V) map[string]V {
	if m == nil {
		return nil
	}
	out := make(map[string]V, len(m))
	//rtlint:unordered map fill, one key at a time
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Family is a topology generator parametric in the station list, so the
// same architecture family can be instantiated for any workload (the sweep
// engine varies the workload per grid cell).
type Family struct {
	// Key is the CLI / report identifier.
	Key string
	// Describe is a one-line description for usage text.
	Describe string
	// Build instantiates the family for a station list.
	Build func(stations []string) *Network
}

// Families returns the built-in architecture families, in report order:
// the paper's star, the cascaded two-switch split, a three-switch tree, a
// four-switch daisy-chain backbone, the dual-redundant star, and the
// skewed dual-redundant star (asymmetric planes).
func Families() []Family {
	return []Family{
		{
			Key:      "star",
			Describe: "single switch, every station attached (the paper's architecture)",
			Build: func(stations []string) *Network {
				return Star(stations)
			},
		},
		{
			Key:      "cascade",
			Describe: "two switches joined by a trunk, stations split in sorted halves",
			Build: func(stations []string) *Network {
				sorted := append([]string(nil), stations...)
				sort.Strings(sorted)
				side := map[string]int{}
				for i, s := range sorted {
					side[s] = 2 * i / max(len(sorted), 1)
				}
				n := Cascade(stations, func(s string) int { return side[s] })
				return n
			},
		},
		{
			Key:      "tree",
			Describe: "hub switch with three leaf switches, stations round-robin on the leaves",
			Build: func(stations []string) *Network {
				n := &Network{
					Name:          "tree",
					Switches:      4,
					Links:         [][2]int{{0, 1}, {0, 2}, {0, 3}},
					StationSwitch: map[string]int{},
				}
				sorted := append([]string(nil), stations...)
				sort.Strings(sorted)
				for i, s := range sorted {
					if i == 0 {
						n.StationSwitch[s] = 0 // one station on the hub
						continue
					}
					n.StationSwitch[s] = 1 + i%3
				}
				return n
			},
		},
		{
			Key:      "chain",
			Describe: "four-switch daisy-chain backbone (line topology)",
			Build: func(stations []string) *Network {
				return Chain(stations, 4)
			},
		},
		{
			Key:      "dual",
			Describe: "dual-redundant star (two independent planes, first copy wins)",
			Build: func(stations []string) *Network {
				return Redundify(Star(stations), 2)
			},
		},
		{
			Key:      "dualskew",
			Describe: "dual-redundant star with per-plane skew (plane B releases 100µs late over 2µs-longer cables)",
			Build: func(stations []string) *Network {
				n := Redundify(Star(stations), 2)
				n.Name = "dualskew-star"
				n.PlaneSpecs = []PlaneSpec{
					{},
					{PhaseSkew: 100 * simtime.Microsecond, PropSkew: 2 * simtime.Microsecond},
				}
				return n
			},
		},
	}
}

// FamilyByKey finds a built-in family.
func FamilyByKey(key string) (Family, error) {
	for _, f := range Families() {
		if f.Key == key {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("topology: unknown family %q", key)
}
