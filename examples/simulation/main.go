// Simulation: validate the analytic bounds against the discrete-event
// simulator. The full real-case network — 19 stations, per-connection
// token-bucket shapers, a store-and-forward switch — runs at the critical
// instant (all connections release at t=0, sporadics greedy), and every
// connection's worst observed latency is checked against its compositional
// end-to-end bound. The run also demonstrates, per the paper, that FCFS
// misses urgent deadlines in practice while priorities do not.
//
// Run with:
//
//	go run ./examples/simulation
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/traffic"
)

func main() {
	set := traffic.RealCase()

	for _, approach := range []analysis.Approach{analysis.FCFS, analysis.Priority} {
		cfg := core.DefaultSimConfig(approach)
		v, err := core.StarScenario(set, cfg).Validate(core.Serial(1))
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %v: %v simulated, %d events, %d deliveries ==\n",
			approach, cfg.Horizon, v.Sim.Events, v.Sim.TotalDelivered())

		// Soundness: every observation below its bound.
		unsound := 0
		var tightest, loosest float64 = 1, 0
		for _, r := range v.Rows {
			if !r.Sound() {
				unsound++
			}
			ratio := r.Observed.Seconds() / r.Bound.Seconds()
			if ratio > loosest {
				loosest = ratio
			}
			if ratio < tightest {
				tightest = ratio
			}
		}
		fmt.Printf("   bounds violated: %d of %d (observed/bound ratio %.2f–%.2f)\n",
			unsound, len(v.Rows), tightest, loosest)

		// Deadline misses observed in simulation.
		misses := 0
		urgentMisses := 0
		//rtlint:unordered commutative sums of per-flow counters
		for _, f := range v.Sim.Flows {
			misses += f.DeadlineMisses
			if f.Msg.Priority == traffic.P0 {
				urgentMisses += f.DeadlineMisses
			}
		}
		fmt.Printf("   deadline misses observed: %d (urgent class: %d)\n\n", misses, urgentMisses)

		// The urgent connections in detail.
		tbl := report.NewTable("urgent connection", "observed max", "e2e bound", "paper bound", "deadline")
		for _, r := range v.Rows {
			if r.Priority != traffic.P0 {
				continue
			}
			tbl.AddRow(r.Name, r.Observed, r.Bound, r.PaperBound, traffic.UrgentDeadline)
		}
		if _, err := tbl.WriteTo(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	fmt.Println("Both runs stay below the compositional bounds; only the priority run")
	fmt.Println("keeps every urgent delivery under 3 ms — the paper's Figure 1, live.")
}
