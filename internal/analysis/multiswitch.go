package analysis

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

// This file extends the compositional analysis to a cascaded two-switch
// architecture — the shape real aircraft networks take when one switch
// cannot reach every bay. Stations are partitioned over two switches
// joined by a full-duplex trunk; a cross-switch connection crosses three
// multiplexers:
//
//	source uplink → source-side trunk port → destination port
//
// Each stage uses the same FCFS/strict-priority bound as the single-switch
// analysis, with the flow's token bucket inflated by the upstream delay
// bound before entering the next stage (the delay-jitter output
// transformation), so the composed bound is sound for the whole path.

// Assignment partitions stations over the two switches (values 0 and 1).
type Assignment func(station string) int

// SplitByName is the default assignment used by experiments: the mission
// computer, displays and their feeders on switch 0, everything else on
// switch 1 — a front/back fuselage split.
func SplitByName(station string) int {
	switch station {
	case traffic.StationMC, traffic.StationDisplay, traffic.StationNav, traffic.StationADC:
		return 0
	default:
		return 1
	}
}

// TwoSwitchEndToEnd bounds every connection over the cascaded topology.
func TwoSwitchEndToEnd(set *traffic.Set, approach Approach, cfg Config, assign Assignment) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if assign == nil {
		return nil, fmt.Errorf("analysis: nil assignment")
	}
	for _, st := range set.Stations() {
		if s := assign(st); s != 0 && s != 1 {
			return nil, fmt.Errorf("analysis: station %q assigned to switch %d (want 0 or 1)", st, s)
		}
	}
	specs := Specs(set, cfg)

	// Stage 1: source uplink multiplexers (no relaying latency).
	srcCfg := cfg
	srcCfg.TTechno = 0
	src := groupByStation(specs, sourceOf)
	srcTables := src.tables(specs, approach, func(string) Config { return srcCfg })
	stage1 := make([]simtime.Duration, len(specs))
	afterSrc := make([]FlowSpec, len(specs))
	for i, f := range specs {
		d, err := srcTables[src.of[i]].delay(f)
		if err != nil {
			return nil, fmt.Errorf("station %s: %w", f.Msg.Source, err)
		}
		stage1[i] = d
		afterSrc[i] = inflate(f, d)
	}

	// Stage 2: the trunk ports. Direction 0→1 carries flows sourced on
	// switch 0 with destinations on switch 1, and vice versa. The trunk
	// egress follows the source-side switch's relaying (t_techno applies).
	crosses := func(f FlowSpec) bool { return assign(f.Msg.Source) != assign(f.Msg.Dest) }
	var trunk [2]classSums
	for i, f := range specs {
		if crosses(f) {
			trunk[assign(f.Msg.Source)].add(afterSrc[i])
		}
	}
	trunkTables := [2]muxTable{trunk[0].table(approach, cfg), trunk[1].table(approach, cfg)}
	stage2 := make([]simtime.Duration, len(specs))
	afterTrunk := make([]FlowSpec, len(specs))
	copy(afterTrunk, afterSrc)
	for i, f := range specs {
		if !crosses(f) {
			continue
		}
		d, err := trunkTables[assign(f.Msg.Source)].delay(afterSrc[i])
		if err != nil {
			return nil, fmt.Errorf("trunk %d→%d: %w", assign(f.Msg.Source), assign(f.Msg.Dest), err)
		}
		stage2[i] = d
		afterTrunk[i] = inflate(afterSrc[i], d)
	}

	// Stage 3: destination ports, fed by local and trunk-inflated flows.
	dst := groupByStation(specs, destOf)
	dstTables := dst.tables(afterTrunk, approach, func(string) Config { return cfg })
	res := &Result{Approach: approach, Cfg: cfg}
	for i, f := range specs {
		d, err := dstTables[dst.of[i]].delay(afterTrunk[i])
		if err != nil {
			return nil, fmt.Errorf("port %s: %w", f.Msg.Dest, err)
		}
		hops := 2
		if crosses(f) {
			hops = 3
		}
		pb := PathBound{
			Spec:        f,
			SourceDelay: stage1[i],
			PortDelay:   stage2[i] + d,
			EndToEnd:    stage1[i] + stage2[i] + d,
			Floor: simtime.Duration(hops)*simtime.TransmissionTime(f.B, cfg.LinkRate) +
				simtime.Duration(hops-1)*cfg.TTechno,
		}
		pb.Jitter = pb.EndToEnd - pb.Floor
		pb.Met = pb.EndToEnd <= simtime.Duration(f.Msg.Deadline)
		res.add(pb)
	}
	return res, nil
}
