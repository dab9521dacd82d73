// Avionics: the full real-case military workload of the reproduction —
// 94 connections across a mission computer, sensors, effectors and generic
// remote terminals — analyzed under both approaches. This regenerates the
// paper's Figure 1 and its three prose claims:
//
//	C1: with shaping + FCFS alone, real-time constraints are violated
//	    despite the 10× speed advantage over MIL-STD-1553B;
//	C2: with 802.1p priorities, the urgent class is bounded below 3 ms;
//	C3: the periodic class improves over its FCFS bound at the bottleneck.
//
// Run with:
//
//	go run ./examples/avionics
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

func main() {
	set := traffic.RealCase()
	cfg := analysis.DefaultConfig()

	fig, err := core.RunFigure1(set, cfg)
	if err != nil {
		log.Fatal(err)
	}

	counts := set.Counts()
	fmt.Printf("real-case workload: %d connections (%d P0, %d P1, %d P2, %d P3), C=%v\n\n",
		len(set.Messages), counts[0], counts[1], counts[2], counts[3], cfg.LinkRate)

	// Figure 1 as a bar sketch: worst bound per class under priorities,
	// against the FCFS bound at the bottleneck.
	worstFCFS := 0.0
	for _, f := range fig.FCFS.Flows {
		if v := f.EndToEnd.Milliseconds(); v > worstFCFS {
			worstFCFS = v
		}
	}
	err = report.Bars(os.Stdout, "Figure 1 — worst-case delay bound per class (ms)",
		[]string{"P0 (urgent, ≤3ms)", "P1 (periodic)", "P2 (sporadic)", "P3 (background)", "FCFS (all classes)"},
		[]float64{
			fig.Priority.ClassWorst[0].Milliseconds(),
			fig.Priority.ClassWorst[1].Milliseconds(),
			fig.Priority.ClassWorst[2].Milliseconds(),
			fig.Priority.ClassWorst[3].Milliseconds(),
			worstFCFS,
		}, 44)
	if err != nil {
		log.Fatal(err)
	}

	// Claim C1.
	fmt.Printf("\nC1 — FCFS violations: %d connection(s) miss their deadline:\n", fig.FCFS.Violations)
	for _, name := range fig.FCFS.ViolatedNames() {
		pb, _ := fig.FCFS.ByName(name)
		fmt.Printf("   %-24s bound %v > deadline %v\n", name, pb.EndToEnd, pb.Spec.Msg.Deadline)
	}

	// Claim C2.
	fmt.Printf("\nC2 — priority bound of the urgent class: %v < %v: %v\n",
		fig.Priority.ClassWorst[traffic.P0], simtime.Duration(traffic.UrgentDeadline),
		fig.Priority.ClassWorst[traffic.P0] < simtime.Duration(traffic.UrgentDeadline))

	// Claim C3, at the bottleneck port.
	var fcfsMC, prioMC simtime.Duration
	for i, f := range fig.FCFS.Flows {
		if f.Spec.Msg.Dest == traffic.StationMC && f.Spec.Msg.Priority == traffic.P1 {
			fcfsMC = f.EndToEnd
			prioMC = fig.Priority.Flows[i].EndToEnd
			break
		}
	}
	fmt.Printf("C3 — periodic bound at the bottleneck: priority %v < FCFS %v: %v\n",
		prioMC, fcfsMC, prioMC < fcfsMC)

	// Buffer dimensioning: the backlog bounds that prevent the loss mode
	// the paper warns about ("messages can be lost if buffers overflow").
	backlogs, err := analysis.EdgeBacklogs(set, cfg, analysis.SingleSwitchTree(set.Stations()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nswitch buffer dimensioning (per output port):\n")
	tbl := report.NewTable("port", "backlog bound")
	for _, e := range backlogs.Edges {
		if e.Kind == analysis.EdgeDest && len(e.Flows) > 0 {
			tbl.AddRow(e.To, fmt.Sprintf("%d B", e.Bound.ByteCount()))
		}
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
