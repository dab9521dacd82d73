package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Scenario is the single currency of the system: one configured avionics
// network — workload, architecture, analysis parameters, simulation
// parameters — bound into the runtime objects every pipeline consumes.
// It is the in-memory form of the JSON scenario file (topology.Config):
// LoadScenario / NewScenario bind a declarative config, and the methods
// Analyze, Simulate, Validate, Sweep and Baseline drive every pipeline
// over the same value, so a custom architecture configured once reaches
// analysis, simulation, cross-validation and the 1553 comparison alike.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Cfg is the declarative source, when the scenario was loaded from
	// one (nil for scenarios assembled in code); it re-marshals to the
	// exact file that was loaded.
	Cfg *topology.Config
	// Set is the bound workload.
	Set *traffic.Set
	// Net is the bound architecture (the paper's star when the scenario
	// declares none), including per-link rate/propagation overrides.
	Net *topology.Network
	// Sim holds the simulation parameters; its LinkRate and TTechno also
	// parameterize the analysis (see Analysis).
	Sim SimConfig
	// BC names the 1553 bus controller for baseline comparisons (empty =
	// the busiest destination).
	BC string
}

// LoadScenario reads, validates and binds a scenario file — the one-call
// path from a JSON document to a runnable Scenario.
func LoadScenario(path string) (*Scenario, error) {
	cfg, err := topology.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return NewScenario(cfg)
}

// NewScenario binds a declarative config: the workload is validated, the
// network section (or the default star) is validated against the
// workload's stations and its routing table is precomputed, and the sim
// section is folded over the paper-matched defaults.
func NewScenario(cfg *topology.Config) (*Scenario, error) {
	set, err := cfg.ToSet()
	if err != nil {
		return nil, err
	}
	net := cfg.BuildNetwork(set.Stations())
	if err := net.Validate(set.Stations()); err != nil {
		return nil, err
	}
	if _, err := net.NextHops(); err != nil {
		return nil, err
	}
	sim, err := simConfigOf(cfg)
	if err != nil {
		return nil, err
	}
	// Per-port capacities must name actual queues of THIS architecture —
	// a typoed edge key would otherwise silently leave the port at the
	// global default, defeating the dimensioning it was meant to carry.
	for _, key := range slices.Sorted(maps.Keys(sim.QueueCapacities)) {
		if !net.ValidQueueKey(key) {
			return nil, fmt.Errorf("core: sim queue_capacities_bytes names no queue of network %q: %q (want \"station->sw<i>\", \"sw<i>->sw<j>\" or \"sw<i>->station\", optionally \"n<plane>.\"-prefixed)", net.Name, key)
		}
	}
	return &Scenario{
		Name: cfg.Name,
		Cfg:  cfg,
		Set:  set,
		Net:  net,
		Sim:  sim,
		BC:   cfg.BusController,
	}, nil
}

// simConfigOf folds the scenario's sim section over the defaults.
func simConfigOf(cfg *topology.Config) (SimConfig, error) {
	sj := cfg.Sim
	if err := sj.Validate(); err != nil {
		return SimConfig{}, err
	}
	approach := analysis.Priority
	if sj != nil && sj.Approach != "" {
		a, err := analysis.ParseApproach(sj.Approach)
		if err != nil {
			return SimConfig{}, err
		}
		approach = a
	}
	sim := DefaultSimConfig(approach)
	ac := cfg.AnalysisConfig()
	sim.LinkRate = ac.LinkRate
	sim.TTechno = ac.TTechno
	if sj == nil {
		return sim, nil
	}
	if sj.HorizonUs > 0 {
		sim.Horizon = simtime.Duration(sj.HorizonUs) * simtime.Microsecond
	}
	if sj.Seed != nil {
		sim.Seed = *sj.Seed
	}
	if sj.Mode == "random-gaps" {
		sim.Mode = traffic.RandomGaps
		// A zero mean slack would silently degenerate random-gaps to
		// greedy spacing (traffic.SourceConfig's documented behaviour);
		// requesting randomization must randomize, so default the slack.
		sim.MeanSlack = DefaultMeanSlack
	}
	if sj.MeanSlackUs > 0 {
		sim.MeanSlack = simtime.Duration(sj.MeanSlackUs) * simtime.Microsecond
	}
	if sj.AlignPhases != nil {
		sim.AlignPhases = *sj.AlignPhases
	}
	if sj.QueueCapacityBytes > 0 {
		sim.QueueCapacity = simtime.Bytes(sj.QueueCapacityBytes)
	}
	if len(sj.QueueCapacitiesBytes) > 0 {
		sim.QueueCapacities = make(map[string]simtime.Size, len(sj.QueueCapacitiesBytes))
		//rtlint:unordered map fill, one key at a time
		for key, c := range sj.QueueCapacitiesBytes {
			sim.QueueCapacities[key] = simtime.Bytes(c)
		}
	}
	if sj.SkewMaxUs > 0 {
		sim.SkewMax = simtime.Duration(sj.SkewMaxUs) * simtime.Microsecond
	}
	sim.BER = sj.BER
	sim.Babbler = sj.Babbler
	if sj.BabbleFactor > 0 {
		sim.BabbleFactor = sj.BabbleFactor
	}
	sim.BypassShapers = sj.BypassShapers
	return sim, nil
}

// StarScenario wraps a bare workload and simulation config as a Scenario
// on the paper's star architecture — the shape every historical free
// function implicitly assumed, now explicit.
func StarScenario(set *traffic.Set, cfg SimConfig) *Scenario {
	return &Scenario{
		Name: "star",
		Set:  set,
		Net:  topology.Star(set.Stations()),
		Sim:  cfg,
	}
}

// WithApproach returns a copy of the scenario under the given multiplexing
// discipline (the network and workload are shared, not cloned).
func (s *Scenario) WithApproach(a analysis.Approach) *Scenario {
	c := *s
	c.Sim.Approach = a
	return &c
}

// Analysis derives the scenario's analytic configuration.
func (s *Scenario) Analysis() analysis.Config {
	return s.Sim.AnalysisConfig()
}

// Analyze computes the tree-composed end-to-end bounds of every connection
// over the scenario's architecture, pricing each hop at its own link rate;
// the paper's star is the one-switch tree, so its bound composes the
// source uplink and the destination port. On a redundant network with
// per-plane specs the bound is the skew-aware first-copy composition:
// minimum over surviving planes of the plane's own tree bound plus its
// phase skew (identical zero-skew planes reduce to the single-plane
// bound, so the classic dual is priced as before). When the scenario also
// carries a residual bit-error rate, the delivered copy may come from ANY
// surviving plane — the others' copies may be corrupted — so the bound
// switches to the loss-aware max-composition
// (analysis.LossyRedundantEndToEnd); on identical planes the two coincide.
func (s *Scenario) Analyze(a analysis.Approach) (*analysis.Result, error) {
	if s.Net.Redundant() {
		cfg := s.Analysis()
		if s.Sim.BER > 0 {
			return analysis.LossyRedundantEndToEnd(s.Set, a, cfg, s.Net.AnalysisPlanes(cfg.LinkRate))
		}
		if len(s.Net.PlaneSpecs) > 0 {
			return analysis.RedundantEndToEnd(s.Set, a, cfg, s.Net.AnalysisPlanes(cfg.LinkRate))
		}
	}
	return analysis.TreeEndToEnd(s.Set, a, s.Analysis(), s.Net.Tree())
}

// AnalyzeDegraded bounds every connection with any ONE surviving plane of
// the scenario's redundant network additionally failed — the availability
// counterpart of Analyze. It errors on networks with fewer than two
// surviving planes.
func (s *Scenario) AnalyzeDegraded(a analysis.Approach) (*analysis.Result, error) {
	cfg := s.Analysis()
	return analysis.DegradedEndToEnd(s.Set, a, cfg, s.Net.AnalysisPlanes(cfg.LinkRate))
}

// Simulate runs the discrete-event simulation of the scenario on the
// unified network engine.
func (s *Scenario) Simulate() (*SimResult, error) {
	return SimulateNetwork(s.Set, s.Sim, s.Net)
}

// Validate cross-validates the scenario: the tree-composed analytic
// bounds against opts.Reps independent simulation replications (each on
// its own RNG substream of opts.Seed; s.Sim.Seed is ignored). PaperBound
// columns carry the single-hop figure the paper would report.
func (s *Scenario) Validate(opts SweepOptions) (*Validation, error) {
	paper, err := analysis.SingleHop(s.Set, s.Sim.Approach, s.Analysis())
	if err != nil {
		return nil, err
	}
	exp := Experiment[*Scenario, *Validation]{
		Points: []*Scenario{s},
		Bind:   func(sc *Scenario) (*Scenario, error) { return sc, nil },
		Cell: func(_ *Scenario, sc *Scenario, e2e *analysis.Result, sims []*SimResult) (*Validation, error) {
			v := &Validation{Approach: sc.Sim.Approach, Sim: sims[0], Reps: len(sims),
				PortMaxBacklog: map[string]simtime.Size{}}
			for _, sim := range sims {
				v.Dropped += sim.Dropped
				//rtlint:unordered max-merge per key, commutative
				for key, m := range sim.PortMaxBacklog {
					if old, ok := v.PortMaxBacklog[key]; !ok || m > old {
						v.PortMaxBacklog[key] = m
					}
				}
			}
			for i, f := range e2e.Flows {
				row := ValidationRow{
					Name:       f.Spec.Msg.Name,
					Priority:   f.Spec.Msg.Priority,
					Bound:      f.EndToEnd,
					PaperBound: paper.Flows[i].EndToEnd,
					Latencies:  &stats.Histogram{},
				}
				for _, sim := range sims {
					fs := sim.Flows[f.Spec.Msg.Name]
					if fs.Latency.Max() > row.Observed {
						row.Observed = fs.Latency.Max()
					}
					row.Delivered += fs.Delivered
					row.Latencies.Merge(fs.Latencies)
				}
				v.Rows = append(v.Rows, row)
			}
			return v, nil
		},
	}
	out, err := exp.Run(opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Sweep cross-validates the scenario across link rates: each rate scales
// the scenario's default link rate (per-link overrides keep their absolute
// values) and is checked bounds-versus-simulation like one grid cell.
func (s *Scenario) Sweep(rates []simtime.Rate, opts SweepOptions) ([]GridCell, error) {
	exp := Experiment[simtime.Rate, GridCell]{
		Points: rates,
		Bind: func(r simtime.Rate) (*Scenario, error) {
			c := *s
			c.Sim.LinkRate = r
			return &c, nil
		},
		Cell: func(r simtime.Rate, sc *Scenario, e2e *analysis.Result, sims []*SimResult) (GridCell, error) {
			cell := GridCell{
				Point:       GridPoint{Rate: r},
				Connections: len(sc.Set.Messages),
				Violations:  e2e.Violations,
				Reps:        len(sims),
			}
			cell.BoundWorst, cell.ObservedWorst, cell.ObservedP99, cell.Delivered, cell.Unsound = cellStats(e2e, sims)
			return cell, nil
		},
	}
	return exp.Run(opts)
}

// BusController resolves the 1553 bus controller: the configured station,
// or the busiest destination of the workload.
func (s *Scenario) BusController() (string, error) {
	if s.BC != "" {
		return s.BC, nil
	}
	return busiestDest(s.Set)
}

// Baseline runs the scenario's workload on the MIL-STD-1553B legacy bus
// over the scenario's horizon, using the configured bus controller (or the
// busiest destination when none is configured).
func (s *Scenario) Baseline(opts SweepOptions) (*Baseline1553, error) {
	bc, err := s.BusController()
	if err != nil {
		return nil, err
	}
	return RunBaseline1553(s.Set, bc, s.Sim.Horizon, opts)
}

// busiestDest returns the station receiving the most connections — the
// natural 1553 bus controller of a workload.
func busiestDest(set *traffic.Set) (string, error) {
	best, bestN := "", -1
	for _, st := range set.Stations() {
		if n := len(set.ByDest(st)); n > bestN {
			best, bestN = st, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("core: no stations")
	}
	return best, nil
}
