package main

import (
	"repro/internal/core"
	"repro/internal/simtime"
)

// simWindow is the virtual-time slice of one traced Advance call.
const simWindow = 100 * simtime.Millisecond

// allocProbe sums heap allocations over Advance windows. It is valid only
// while no other goroutine allocates, so callers pass one to sequential
// simulations alone.
type allocProbe struct {
	windows, allocs uint64
	// steady counts the windows after each run's first, when the pools
	// have warmed up and the hot loop should allocate nothing.
	steadyWindows, steadyAllocs uint64
}

func (p *allocProbe) perWindow() float64 {
	if p.windows == 0 {
		return 0
	}
	return float64(p.allocs) / float64(p.windows)
}

func (p *allocProbe) steadyPerWindow() float64 {
	if p.steadyWindows == 0 {
		return 0
	}
	return float64(p.steadyAllocs) / float64(p.steadyWindows)
}

// stagedSim runs one simulation the way core.SimulateNetwork composes it
// — NewNetworkSim, Advance until the horizon, Finish — with a span around
// each stage and each simWindow of Advance.
func stagedSim(tr *tracer, parent, op int, sc *core.Scenario, cfg core.SimConfig, probe *allocProbe) (*core.SimResult, error) {
	var (
		ns  *core.NetworkSim
		err error
	)
	tr.do("sim.setup", parent, op, func() { ns, err = core.NewNetworkSim(sc.Set, cfg, sc.Net) })
	if err != nil {
		return nil, err
	}
	for done, w := simtime.Duration(0), 0; done < cfg.Horizon; w++ {
		step := min(simWindow, cfg.Horizon-done)
		var before uint64
		if probe != nil {
			before = allocObjects()
		}
		id := tr.begin("sim.advance", parent, op)
		ns.Advance(step)
		tr.end(id)
		if probe != nil {
			n := allocObjects() - before
			probe.windows++
			probe.allocs += n
			if w > 0 {
				probe.steadyWindows++
				probe.steadyAllocs += n
			}
		}
		done += step
	}
	var res *core.SimResult
	tr.do("sim.finish", parent, op, func() { res, err = ns.Finish() })
	return res, err
}

// simLayer reports the simulator's per-layer metrics from a trace.
func simLayer(r *report, ts traceSummary, probe *allocProbe, events uint64, runs int) {
	setup, adv, fin := ts.byName["sim.setup"], ts.byName["sim.advance"], ts.byName["sim.finish"]
	r.set("sim.setup_us", setup.meanUs(), "us", "per core.NewNetworkSim")
	nsPerEvent := 0.0
	if events > 0 {
		nsPerEvent = float64(adv.Total) / float64(events)
	}
	r.set("sim.ns_per_event", nsPerEvent, "ns", "NetworkSim.Advance time / SimResult.Events")
	perRun := 0.0
	if runs > 0 {
		perRun = float64(events) / float64(runs)
	}
	r.set("sim.events_per_run", perRun, "count", "SimResult.Events per simulation; a pure speed change leaves it unchanged")
	r.set("sim.allocs_per_window", probe.perWindow(), "count",
		"heap objects per 100 ms Advance window, first window included")
	r.info("sim.steady_allocs_per_window", probe.steadyPerWindow(), "count", "windows after each run's first")
	r.set("sim.finish_us", fin.meanUs(), "us", "per NetworkSim.Finish")
}
