// Package repro is the public façade of the reproduction of
//
//	A. Mifdaoui, F. Frances, C. Fraboul,
//	"Real-Time Communication over Switched Ethernet for Military
//	Applications", CoNEXT 2005 (student workshop).
//
// The primary API is the Scenario: one serializable value — workload,
// network architecture (with per-link rate and propagation overrides,
// redundant planes), analysis parameters and simulation parameters — that
// drives every pipeline. Load one from a JSON file (LoadScenario), bind a
// declarative config (NewScenario), or wrap a workload on the paper's star
// (StarScenario), then call its methods:
//
//	s, _ := repro.LoadScenario("scenario.json")
//	bounds, _ := s.Analyze(repro.PriorityHandling) // tree-composed e2e bounds
//	sim, _ := s.Simulate()                         // DES on the unified engine
//	v, _ := s.Validate(repro.Serial(1))            // bounds vs simulation
//
// Parameter-space studies build on the generic Experiment runner, which
// binds every point to a Scenario and cross-validates bounds against
// Monte-Carlo simulation replications on the parallel sweep engine.
//
// The package additionally re-exports the underlying pieces:
//
//   - workload modelling: Message, Set, the four 802.1p priority classes,
//     and the built-in real-case military catalog (RealCase);
//   - the paper's analysis: FCFS and strict-priority delay bounds per
//     multiplexer, per-connection single-hop (paper-faithful) and
//     compositional end-to-end network analyses, backlog and jitter
//     bounds;
//   - discrete-event simulation of arbitrary switch-tree networks
//     (shapers, multiplexers, store-and-forward switches, redundant
//     planes) and of the MIL-STD-1553B baseline bus;
//   - the experiment drivers behind every figure, table and claim in
//     EXPERIMENTS.md.
//
// See examples/ for runnable entry points and cmd/rtether for the CLI.
package repro

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Re-exported workload types.
type (
	// Message is one avionics connection: kind, period, payload, deadline.
	Message = traffic.Message
	// Set is a workload of messages.
	Set = traffic.Set
	// Priority is an 802.1p class, P0 (urgent) through P3 (background).
	Priority = traffic.Priority
	// Kind distinguishes periodic from sporadic connections.
	Kind = traffic.Kind
)

// Re-exported analysis types.
type (
	// Approach selects FCFS or strict-priority multiplexing.
	Approach = analysis.Approach
	// AnalysisConfig fixes C, t_techno and framing.
	AnalysisConfig = analysis.Config
	// Result is a full network analysis.
	Result = analysis.Result
	// PathBound is the analysis outcome for one connection.
	PathBound = analysis.PathBound
	// FlowSpec is a connection reduced to its (bᵢ, rᵢ) shape.
	FlowSpec = analysis.FlowSpec
	// EdgeBacklog is the backlog bound of one directed edge's queue.
	EdgeBacklog = analysis.EdgeBacklog
	// NetworkBacklogs is the per-plane buffer dimensioning of a network
	// (Scenario.Backlogs); its Capacities feed the sim section's
	// queue_capacities_bytes and SimConfig.QueueCapacities.
	NetworkBacklogs = core.NetworkBacklogs
	// BacklogVerdict summarizes observed queue high-water marks against
	// the per-edge backlog bounds.
	BacklogVerdict = core.BacklogVerdict
)

// Scenario is the single currency of the system: one configured avionics
// network — workload, architecture, analysis and simulation parameters —
// whose methods (Analyze, Simulate, Validate, Sweep, Baseline) drive every
// pipeline. It round-trips losslessly to the JSON scenario format.
type Scenario = core.Scenario

// ScenarioConfig is the declarative JSON form of a scenario, including
// the optional network section (switches, trunks, station placement,
// redundant planes, per-link rate/propagation-delay overrides) and sim
// section (horizon, seed, source mode, BER, queue capacity, …).
type ScenarioConfig = topology.Config

// Experiment is the generic cross-validation runner behind every grid and
// replication driver: each point binds to a Scenario, bounds are computed
// once, replications run on the parallel sweep engine, and a Cell function
// folds both into the experiment's row type.
type Experiment[P, C any] = core.Experiment[P, C]

// LoadScenario reads, validates and binds a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) { return core.LoadScenario(path) }

// NewScenario binds a declarative scenario config into a runnable
// Scenario: workload and network validated, routing precomputed, sim
// section folded over the paper-matched defaults.
func NewScenario(cfg *ScenarioConfig) (*Scenario, error) { return core.NewScenario(cfg) }

// StarScenario wraps a bare workload and simulation config as a Scenario
// on the paper's star architecture.
func StarScenario(set *Set, cfg SimConfig) *Scenario { return core.StarScenario(set, cfg) }

// DefaultScenarioConfig returns the built-in real-case scenario document.
func DefaultScenarioConfig() *ScenarioConfig { return topology.Default() }

// ScenarioTemplate returns the real-case scenario with the network section
// filled in from a built-in architecture family — a starting point for
// custom architectures.
func ScenarioTemplate(familyKey string) (*ScenarioConfig, error) {
	return topology.Template(familyKey)
}

// Re-exported simulation and experiment types.
type (
	// SimConfig parameterizes a simulation run.
	SimConfig = core.SimConfig
	// SimResult is a simulation outcome.
	SimResult = core.SimResult
	// Figure1 holds the paper's Figure 1 data.
	Figure1 = core.Figure1
	// Validation compares bounds with simulation (experiment S1).
	Validation = core.Validation
	// Baseline1553 is the legacy-bus comparison (experiment B1).
	Baseline1553 = core.Baseline1553
	// SweepOptions configures the parallel scenario-sweep engine
	// (workers, Monte-Carlo replications, root seed).
	SweepOptions = core.SweepOptions
	// GridPoint is one rates × loads cross-validation cell coordinate.
	GridPoint = core.GridPoint
	// GridCell is one cross-validation cell's aggregated outcome.
	GridCell = core.GridCell
)

// Workload constants and constructors.
const (
	Periodic = traffic.Periodic
	Sporadic = traffic.Sporadic
	P0       = traffic.P0
	P1       = traffic.P1
	P2       = traffic.P2
	P3       = traffic.P3

	// FCFS is approach 1: shaping only.
	FCFS = analysis.FCFS
	// PriorityHandling is approach 2: shaping + 802.1p priorities.
	PriorityHandling = analysis.Priority
)

// RealCase returns the built-in real-case military workload (94
// connections; see internal/traffic/catalog.go for its derivation from
// the paper's stated envelope).
func RealCase() *Set { return traffic.RealCase() }

// RealCaseWith returns the workload scaled by extra generic remote
// terminals (the load ablation's knob).
func RealCaseWith(extraRTs int) *Set { return traffic.RealCaseWith(extraRTs) }

// Classify maps kind and deadline onto the paper's priority classes.
func Classify(kind Kind, deadline simtime.Duration) Priority {
	return traffic.Classify(kind, deadline)
}

// DefaultConfig returns the paper's analysis parameters (10 Mbps, 140 µs).
func DefaultConfig() AnalysisConfig { return analysis.DefaultConfig() }

// SingleHop runs the paper-faithful analysis (one multiplexer per
// destination port).
func SingleHop(set *Set, a Approach, cfg AnalysisConfig) (*Result, error) {
	return analysis.SingleHop(set, a, cfg)
}

// DefaultSimConfig returns paper-matched simulation parameters.
func DefaultSimConfig(a Approach) SimConfig { return core.DefaultSimConfig(a) }

// Simulate runs the star-network discrete-event simulation.
func Simulate(set *Set, cfg SimConfig) (*SimResult, error) { return core.Simulate(set, cfg) }

// RunFigure1 computes the paper's Figure 1 data.
func RunFigure1(set *Set, cfg AnalysisConfig) (*Figure1, error) { return core.RunFigure1(set, cfg) }

// Serial returns the sweep-engine options matching the historical serial
// drivers: one worker, one replication, the given root seed.
func Serial(seed uint64) SweepOptions { return core.Serial(seed) }

// RunBaseline1553 runs the workload on the legacy MIL-STD-1553B bus,
// optionally replicated and parallelized via opts.
func RunBaseline1553(set *Set, bc string, horizon simtime.Duration, opts SweepOptions) (*Baseline1553, error) {
	return core.RunBaseline1553(set, bc, horizon, opts)
}

// Grid builds the cross product of link rates × extra remote terminals.
func Grid(rates []simtime.Rate, loads []int) []GridPoint { return core.Grid(rates, loads) }

// Tree describes a multi-switch topology (see analysis.Tree).
type Tree = analysis.Tree

// TreeEndToEnd bounds every connection over an arbitrary switch tree.
func TreeEndToEnd(set *Set, a Approach, cfg AnalysisConfig, tree *Tree) (*Result, error) {
	return analysis.TreeEndToEnd(set, a, cfg, tree)
}

// Network is the general architecture description behind the unified
// simulator: switches joined into a tree by full-duplex trunks, stations
// placed on switches, and optionally several independent redundant planes
// (the dual-network AFDX shape).
type Network = topology.Network

// TopologyFamily is a topology generator parametric in the station list
// (see topology.Families for the built-in architecture families).
type TopologyFamily = topology.Family

// TopoPoint is one topology × rate × load grid-cell coordinate.
type TopoPoint = core.TopoPoint

// TopoCell is one topology-grid cell's aggregated outcome.
type TopoCell = core.TopoCell

// TopologyFamilies returns the built-in architecture families: star,
// cascade, tree, daisy-chain, and the dual-redundant star.
func TopologyFamilies() []TopologyFamily { return topology.Families() }

// StarNetwork returns the paper's architecture for a station list.
func StarNetwork(stations []string) *Network { return topology.Star(stations) }

// ChainNetwork returns a daisy-chain backbone of the given length.
func ChainNetwork(stations []string, switches int) *Network {
	return topology.Chain(stations, switches)
}

// RedundantNetwork returns base replicated into independent planes (2 =
// dual-redundant; the receiver keeps the first copy of every instance).
func RedundantNetwork(base *Network, planes int) *Network {
	return topology.Redundify(base, planes)
}

// PlaneSpec configures one redundant plane of a network: rate scale,
// release phase skew, per-link propagation skew, and failure. Assign a
// slice of these to Network.PlaneSpecs (or a planes array in the scenario
// JSON) to model asymmetric dual networks; the receiver's ARINC 664-style
// integrity checking (SimConfig.SkewMax) classifies duplicate copies as
// redundant (in-window) or discarded (out-of-window).
type PlaneSpec = topology.PlaneSpec

// AnalysisPlane describes one redundant plane for the skew-aware
// first-copy composition (see RedundantEndToEnd); Network.AnalysisPlanes
// materializes them from a network's plane specs.
type AnalysisPlane = analysis.Plane

// RedundantEndToEnd bounds every connection of a redundant network with
// all declared planes up: minimum over surviving planes of the plane's
// own tree-composed bound plus its phase skew (first copy wins).
// Scenario.Analyze applies it automatically to redundant scenarios with
// plane specs.
func RedundantEndToEnd(set *Set, a Approach, cfg AnalysisConfig, planes []AnalysisPlane) (*Result, error) {
	return analysis.RedundantEndToEnd(set, a, cfg, planes)
}

// DegradedEndToEnd bounds every connection with any ONE surviving plane
// additionally failed — the availability bound of a redundant network
// (also available as Scenario.AnalyzeDegraded).
func DegradedEndToEnd(set *Set, a Approach, cfg AnalysisConfig, planes []AnalysisPlane) (*Result, error) {
	return analysis.DegradedEndToEnd(set, a, cfg, planes)
}

// SimulateNetwork runs the workload over an arbitrary network description
// — the one engine behind Simulate, Scenario.Simulate and the
// architecture families, honoring every SimConfig field on every
// topology.
func SimulateNetwork(set *Set, cfg SimConfig, topo *Network) (*SimResult, error) {
	return core.SimulateNetwork(set, cfg, topo)
}

// TopoGrid builds the topology × rate × load cross product.
func TopoGrid(fams []TopologyFamily, rates []simtime.Rate, loads []int) []TopoPoint {
	return core.TopoGrid(fams, rates, loads)
}
