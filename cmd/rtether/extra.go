package main

import (
	"fmt"
	"os"

	"repro/internal/afdx"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/trace"
)

// cmdCapacity answers the inverse of the paper's observation: what is the
// smallest link rate at which each approach meets every deadline?
func cmdCapacity(args []string) error {
	fs := newFlagSet("capacity")
	config := fs.String("config", "", "scenario JSON (path or - for stdin)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	scen, err := loadScenario(*config)
	if err != nil {
		return err
	}
	set, err := scen.ToSet()
	if err != nil {
		return err
	}
	cfg := scen.AnalysisConfig()
	tbl := report.NewTable("approach", "minimal link rate", "vs paper's 10Mbps")
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		rate, err := analysis.MinimalRate(set, approach, cfg, simtime.Mbps, simtime.Gbps, 100*simtime.Kbps)
		if err != nil {
			return err
		}
		verdict := "fits"
		if rate > 10*simtime.Mbps {
			verdict = "needs more"
		}
		tbl.AddRow(approach, rate, verdict)
	}
	fmt.Fprintln(stdout, "capacity planning (A5): minimal rate meeting all deadlines")
	_, err = tbl.WriteTo(stdout)
	return err
}

// cmdBacklog prints the complete per-switch memory budget of the
// scenario's architecture: every directed edge owns one queue — station
// uplink multiplexers, trunk output ports in both directions, destination
// output ports — and every one gets a backlog bound (core.EdgeBacklogs).
// Rows group under the switch owning the queue, and the per-switch totals
// cover destination and trunk ports alike, so they are the switch's whole
// memory. Station uplink queues live in the stations and get their own
// section. With -dimension the command instead emits the scenario JSON
// with the derived per-port capacities in the sim section
// (queue_capacities_bytes), ready to pipe into any other subcommand:
// rtether backlog -dimension | rtether validate -config -.
func cmdBacklog(args []string) error {
	fs := newFlagSet("backlog")
	config := fs.String("config", "", "scenario JSON (path or - for stdin)")
	dimension := fs.Bool("dimension", false, "emit the scenario JSON with derived per-port queue capacities instead of the table")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	s, err := bindScenario(*config)
	if err != nil {
		return err
	}
	// One shared encoder with the scenario service (POST /v1/backlog).
	return render.Backlog(stdout, s, *dimension)
}

// cmdAFDX maps the workload onto ARINC 664 virtual links and compares the
// civil 2-priority profile with the paper's military 4-class one.
func cmdAFDX(args []string) error {
	fs := newFlagSet("afdx")
	config := fs.String("config", "", "scenario JSON (path or - for stdin)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	scen, err := loadScenario(*config)
	if err != nil {
		return err
	}
	set, err := scen.ToSet()
	if err != nil {
		return err
	}
	cfg := scen.AnalysisConfig()
	vls, err := afdx.FromMessages(set)
	if err != nil {
		return err
	}
	cmp, err := afdx.CompareBounds(set, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "AFDX mapping: %d virtual links at %v\n", len(vls), cfg.LinkRate)
	if offenders := afdx.CheckJitterBudgets(vls, cfg.LinkRate); len(offenders) > 0 {
		fmt.Fprintf(stdout, "ARINC 664 500µs ES-jitter budget exceeded by: %v (AFDX runs at 100 Mbps for a reason)\n", offenders)
	}
	fmt.Fprintln(stdout)
	tbl := report.NewTable("connection", "BAG", "Lmax", "VL prio", "civil 2-class bound", "military 4-class bound")
	for i, vl := range vls {
		tbl.AddRow(vl.Msg.Name, vl.BAG, fmt.Sprintf("%dB", vl.Lmax), vl.Priority,
			cmp[i].Civil, cmp[i].Military)
	}
	_, err = tbl.WriteTo(stdout)
	return err
}

// openPCAP creates the capture file for cmdSimulate's -pcap flag.
func openPCAP(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pcap: %w", err)
	}
	return f, nil
}

// writeTraceCSV dumps a recorder to a CSV file.
func writeTraceCSV(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return rec.WriteCSV(f)
}

// cmdSchedulers prints the four-discipline comparison of the urgent class
// at the bottleneck (experiments A7/A8).
func cmdSchedulers(args []string) error {
	fs := newFlagSet("schedulers")
	config := fs.String("config", "", "scenario JSON (path or - for stdin)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	scen, err := loadScenario(*config)
	if err != nil {
		return err
	}
	set, err := scen.ToSet()
	if err != nil {
		return err
	}
	cmp, err := analysis.CompareSchedulers(set, scen.AnalysisConfig(), analysis.EqualDRRQuanta())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "urgent-class bound at the bottleneck, per multiplexer discipline:")
	tbl := report.NewTable("discipline", "P0 bound", "meets 3ms")
	deadline := 3 * simtime.Millisecond
	tbl.AddRow("FCFS (paper approach 1)", cmp.FCFS, mark(cmp.FCFS <= deadline))
	tbl.AddRow("strict priority (paper approach 2)", cmp.StrictPriority, mark(cmp.StrictPriority <= deadline))
	tbl.AddRow("preemptive priority (TSN express, ideal)", cmp.PreemptivePriority, mark(cmp.PreemptivePriority <= deadline))
	if cmp.DRRStable {
		tbl.AddRow("deficit round robin (equal quanta)", cmp.DeficitRoundRobin, mark(cmp.DeficitRoundRobin <= deadline))
	} else {
		tbl.AddRow("deficit round robin (equal quanta)", "unstable (class share too small)", "NO")
	}
	_, err = tbl.WriteTo(stdout)
	return err
}

// cmdTwoSwitch analyzes and simulates the scenario's workload on the
// cascaded two-switch topology, stations split front/back by fuselage
// section (topology.FuselageSplit). The scenario's link rate and t_techno
// apply; its network and sim sections do not.
func cmdTwoSwitch(args []string) error {
	fs := newFlagSet("twoswitch")
	config := fs.String("config", "", "scenario JSON (path or - for stdin)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	scen, err := loadScenario(*config)
	if err != nil {
		return err
	}
	set, err := scen.ToSet()
	if err != nil {
		return err
	}
	net := topology.Cascade(set.Stations(), topology.FuselageSplit)
	fmt.Fprintln(stdout, "cascaded two-switch architecture (front/back fuselage split)")
	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		cfg := core.DefaultSimConfig(approach)
		cfg.LinkRate = scen.AnalysisConfig().LinkRate
		cfg.TTechno = scen.AnalysisConfig().TTechno
		cascade := &core.Scenario{Name: "twoswitch", Set: set, Net: net, Sim: cfg}
		bounds, err := cascade.Analyze(approach)
		if err != nil {
			return err
		}
		sim, err := cascade.Simulate()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n== %v: %d violations; worst P0 bound %v, observed %v ==\n",
			approach, bounds.Violations,
			bounds.ClassWorst[0], sim.ClassWorst[0])
		tbl := report.NewTable("connection", "class", "crosses trunk", "bound", "observed max", "ok")
		for _, pb := range bounds.Flows {
			crosses := net.StationSwitch[pb.Spec.Msg.Source] != net.StationSwitch[pb.Spec.Msg.Dest]
			if pb.Spec.Msg.Priority != 0 && !crosses {
				continue // keep the table focused: urgent + trunk crossers
			}
			tbl.AddRow(pb.Spec.Msg.Name, pb.Spec.Msg.Priority, crosses,
				pb.EndToEnd, sim.Flows[pb.Spec.Msg.Name].Latency.Max(), mark(pb.Met))
		}
		if _, err := tbl.WriteTo(stdout); err != nil {
			return err
		}
	}
	return nil
}
