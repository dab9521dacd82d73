package core

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/des"
	"repro/internal/milstd1553"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// This file drives the experiments of EXPERIMENTS.md. Each Run* function
// produces the data behind one figure, table or prose claim of the paper.

// Figure1 holds the data of the paper's Figure 1: the delay bounds of the
// two approaches over the real-case traffic.
type Figure1 struct {
	Cfg      analysis.Config
	FCFS     *analysis.Result
	Priority *analysis.Result
}

// RunFigure1 computes both analyses over the message set with the
// paper-faithful single-hop model.
func RunFigure1(set *traffic.Set, cfg analysis.Config) (*Figure1, error) {
	fcfs, err := analysis.SingleHop(set, analysis.FCFS, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: FCFS analysis: %w", err)
	}
	prio, err := analysis.SingleHop(set, analysis.Priority, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: priority analysis: %w", err)
	}
	return &Figure1{Cfg: cfg, FCFS: fcfs, Priority: prio}, nil
}

// ValidationRow compares one connection's analytic bound with simulation.
type ValidationRow struct {
	Name     string
	Priority traffic.Priority
	// Bound is the compositional end-to-end bound (sound for the
	// two-multiplexer path the simulator implements).
	Bound simtime.Duration
	// PaperBound is the single-hop bound the paper would report.
	PaperBound simtime.Duration
	// Observed is the worst simulated latency over all replications.
	Observed simtime.Duration
	// Delivered counts simulated deliveries backing Observed.
	Delivered int
	// Latencies holds every delivered latency, merged across
	// replications — exact quantiles of the Monte-Carlo experiment.
	Latencies *stats.Histogram
}

// Sound reports whether the observation respects the compositional bound.
func (r ValidationRow) Sound() bool { return r.Observed <= r.Bound }

// Validation is experiment S1: simulated worst cases versus bounds.
type Validation struct {
	Approach analysis.Approach
	Rows     []ValidationRow
	// Sim is the first replication's full result.
	Sim *SimResult
	// Reps is the number of Monte-Carlo replications aggregated.
	Reps int
	// PortMaxBacklog is the per-queue observed occupancy high-water mark,
	// maximized across all replications (keys as in
	// SimResult.PortMaxBacklog) — the backlog half of the validation.
	PortMaxBacklog map[string]simtime.Size
	// Dropped totals queue-capacity drops across all replications.
	Dropped int
}

// AllSound reports whether every connection respected its bound.
func (v *Validation) AllSound() bool {
	for _, r := range v.Rows {
		if !r.Sound() {
			return false
		}
	}
	return true
}

// RatePoint is one point of the link-rate ablation (A1): the paper's
// observation that "having a Switched Ethernet with a higher rate is not
// sufficient" inverted — at which rate does FCFS start meeting the urgent
// deadline?
type RatePoint struct {
	Rate simtime.Rate
	// FCFSUrgent and PriorityUrgent are the worst P0 end-to-end bounds.
	FCFSUrgent, PriorityUrgent simtime.Duration
	// FCFSViolations and PriorityViolations count missed deadlines over
	// all classes.
	FCFSViolations, PriorityViolations int
}

// RunRateSweep evaluates both approaches across link rates on the sweep
// engine (opts.Workers points at a time). The analysis is deterministic,
// so opts.Reps and opts.Seed are ignored.
func RunRateSweep(set *traffic.Set, rates []simtime.Rate, base analysis.Config, opts SweepOptions) ([]RatePoint, error) {
	return sweep.Run(rates, opts.workers(), func(rate simtime.Rate) (RatePoint, error) {
		cfg := base
		cfg.LinkRate = rate
		f, err := analysis.SingleHop(set, analysis.FCFS, cfg)
		if err != nil {
			return RatePoint{}, fmt.Errorf("core: rate %v FCFS: %w", rate, err)
		}
		p, err := analysis.SingleHop(set, analysis.Priority, cfg)
		if err != nil {
			return RatePoint{}, fmt.Errorf("core: rate %v priority: %w", rate, err)
		}
		return RatePoint{
			Rate:               rate,
			FCFSUrgent:         f.ClassWorst[traffic.P0],
			PriorityUrgent:     p.ClassWorst[traffic.P0],
			FCFSViolations:     f.Violations,
			PriorityViolations: p.Violations,
		}, nil
	})
}

// LoadPoint is one point of the station-count ablation (A2).
type LoadPoint struct {
	ExtraRTs    int
	Connections int
	// Urgent bounds under both approaches at the bottleneck.
	FCFSUrgent, PriorityUrgent simtime.Duration
	FCFSViolations             int
	PriorityViolations         int
}

// RunLoadSweep evaluates both approaches as generic remote terminals are
// added to the catalog, one sweep-engine point per station count. Like
// RunRateSweep it is deterministic, so opts.Reps and opts.Seed are ignored.
func RunLoadSweep(extraRTs []int, cfg analysis.Config, opts SweepOptions) ([]LoadPoint, error) {
	return sweep.Run(extraRTs, opts.workers(), func(n int) (LoadPoint, error) {
		set := traffic.RealCaseWith(n)
		f, err := analysis.SingleHop(set, analysis.FCFS, cfg)
		if err != nil {
			return LoadPoint{}, fmt.Errorf("core: %d RTs FCFS: %w", n, err)
		}
		p, err := analysis.SingleHop(set, analysis.Priority, cfg)
		if err != nil {
			return LoadPoint{}, fmt.Errorf("core: %d RTs priority: %w", n, err)
		}
		return LoadPoint{
			ExtraRTs:           n,
			Connections:        len(set.Messages),
			FCFSUrgent:         f.ClassWorst[traffic.P0],
			PriorityUrgent:     p.ClassWorst[traffic.P0],
			FCFSViolations:     f.Violations,
			PriorityViolations: p.Violations,
		}, nil
	})
}

// BaselineFlow is one connection's behaviour on the 1553B baseline.
type BaselineFlow struct {
	Name string
	// WorstCase is the analytic bound on the 1553 schedule.
	WorstCase simtime.Duration
	// Observed summarizes simulated latencies.
	Observed stats.Summary
}

// Baseline1553 is experiment B1: the same workload on the legacy bus.
type Baseline1553 struct {
	Schedule *milstd1553.Schedule
	Flows    map[string]*BaselineFlow
	// Overruns totals minor-frame overruns across replications.
	Overruns int
	// Utilization is the measured bus utilization, averaged over
	// replications.
	Utilization float64
	// Reps is the number of Monte-Carlo replications aggregated.
	Reps int
}

// SortedNames returns connection names in sorted order.
func (b *Baseline1553) SortedNames() []string {
	out := make([]string, 0, len(b.Flows))
	//rtlint:sorted-after
	for n := range b.Flows {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// baselineRep is one replication's measurements of the 1553 bus.
type baselineRep struct {
	observed    map[string]*stats.Summary
	overruns    int
	utilization float64
}

// RunBaseline1553 builds the 1553 schedule for the workload, simulates it,
// and pairs analytic worst cases with observed latencies. A single
// replication runs the deterministic critical instant (greedy aligned
// sources); with opts.Reps > 1 the bus instead runs that many Monte-Carlo
// replications with randomized release phases and sporadic gaps, each on
// its own RNG substream of opts.Seed (opts.Workers at a time), and
// per-connection observations are merged across replications.
func RunBaseline1553(set *traffic.Set, bc string, horizon simtime.Duration, opts SweepOptions) (*Baseline1553, error) {
	schedule, err := milstd1553.Build(set, bc)
	if err != nil {
		return nil, err
	}
	if !schedule.Feasible() {
		return nil, fmt.Errorf("core: 1553 schedule infeasible for this workload")
	}
	out := &Baseline1553{Schedule: schedule, Flows: map[string]*BaselineFlow{}, Reps: opts.reps()}
	for _, m := range set.Messages {
		wc, err := schedule.WorstCaseLatency(m)
		if err != nil {
			return nil, err
		}
		out.Flows[m.Name] = &BaselineFlow{Name: m.Name, WorstCase: wc}
	}

	src := traffic.SourceConfig{Mode: traffic.Greedy, AlignPhases: true}
	if opts.reps() > 1 {
		// The critical instant is deterministic — identical replications
		// would sample nothing. Monte-Carlo replications randomize.
		src = traffic.SourceConfig{Mode: traffic.RandomGaps, MeanSlack: DefaultMeanSlack, AlignPhases: false}
	}
	seeds := make([]uint64, opts.reps())
	for j := range seeds {
		seeds[j] = des.SplitSeed(opts.Seed, uint64(j))
	}
	reps, err := sweep.Run(seeds, opts.workers(), func(seed uint64) (baselineRep, error) {
		// Each replication gets its own schedule instance: the bus owns
		// the schedule's cursor state while running.
		sched, err := milstd1553.Build(set, bc)
		if err != nil {
			return baselineRep{}, err
		}
		rep := baselineRep{observed: map[string]*stats.Summary{}}
		for _, m := range set.Messages {
			rep.observed[m.Name] = &stats.Summary{}
		}
		sim := des.New(seed)
		bus := milstd1553.NewBus(sim, sched)
		bus.OnDeliver = func(d milstd1553.Delivery) {
			rep.observed[d.Msg.Name].Add(d.Latency())
		}
		traffic.Start(sim, set, src, bus.Release)
		bus.Start()
		sim.RunFor(horizon)
		rep.overruns = bus.Overruns
		rep.utilization = bus.MeasuredUtilization()
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rep := range reps {
		//rtlint:unordered each name merges into its own per-flow target
		for name, s := range rep.observed {
			out.Flows[name].Observed.Merge(s)
		}
		out.Overruns += rep.overruns
		out.Utilization += rep.utilization
	}
	out.Utilization /= float64(len(reps))
	return out, nil
}
