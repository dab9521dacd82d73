package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// capture runs a command function with stdout redirected to a buffer.
func capture(t *testing.T, fn func([]string) error, args ...string) string {
	t.Helper()
	var b strings.Builder
	old := stdout
	stdout = &b
	defer func() { stdout = old }()
	if err := fn(args); err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return b.String()
}

func TestCmdFigure1(t *testing.T) {
	out := capture(t, cmdFigure1)
	for _, want := range []string{
		"Figure 1", "10Mbps", "140µs",
		"FCFS violations: 10 of 94",
		"priority violations: 0",
		"ew/threat-warning",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCmdFigure1CSV(t *testing.T) {
	out := capture(t, cmdFigure1, "-csv")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 95 { // header + 94 connections
		t.Errorf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "connection,class,") {
		t.Errorf("CSV header %q", lines[0])
	}
}

func TestCmdAnalyze(t *testing.T) {
	out := capture(t, cmdAnalyze)
	if !strings.Contains(out, "single-hop (paper-faithful)") {
		t.Error("model line missing")
	}
	if !strings.Contains(out, "== FCFS: 10 violations ==") {
		t.Errorf("FCFS section missing:\n%s", firstLines(out, 3))
	}
	out = capture(t, cmdAnalyze, "-e2e")
	if !strings.Contains(out, "end-to-end (compositional)") {
		t.Error("e2e model line missing")
	}
}

func TestCmdSimulate(t *testing.T) {
	out := capture(t, cmdSimulate, "-horizon", "100ms", "-approach", "fcfs")
	if !strings.Contains(out, "simulated 100ms under FCFS") {
		t.Errorf("header missing:\n%s", firstLines(out, 2))
	}
	if !strings.Contains(out, "nav/attitude") {
		t.Error("per-connection rows missing")
	}
}

func TestCmdSimulatePCAP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.pcap")
	out := capture(t, cmdSimulate, "-horizon", "50ms", "-pcap", path)
	if !strings.Contains(out, "wrote ") {
		t.Error("pcap summary missing")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 24 || data[0] != 0xd4 { // little-endian magic
		t.Errorf("pcap file malformed (%d bytes)", len(data))
	}
}

func TestCmdBaseline(t *testing.T) {
	out := capture(t, cmdBaseline)
	for _, want := range []string{"MIL-STD-1553B baseline", "utilization", "ew/threat-warning",
		"(1 replications)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCmdSweep(t *testing.T) {
	out := capture(t, cmdSweep, "-horizon", "50ms")
	for _, want := range []string{"10Mbps", "100Mbps", "1Gbps",
		"grid cross-validation", "cells with bound violations: 0 of 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep missing %q", want)
		}
	}
	if !strings.Contains(capture(t, cmdSweep, "-nogrid"), "link-rate ablation") {
		t.Error("-nogrid lost the ablation")
	}
}

// The acceptance contract of the sweep engine: for the same seed, the
// command's full output is byte-identical at any -parallel value.
func TestCmdSweepParallelDeterministic(t *testing.T) {
	args := []string{"-horizon", "50ms", "-reps", "3", "-seed", "42"}
	serial := capture(t, cmdSweep, append([]string{"-parallel", "1"}, args...)...)
	par := capture(t, cmdSweep, append([]string{"-parallel", "8"}, args...)...)
	if serial != par {
		t.Errorf("sweep output differs between -parallel=1 and -parallel=8:\n%s\nvs\n%s", serial, par)
	}
}

func TestCmdValidateReplicated(t *testing.T) {
	args := []string{"-horizon", "50ms", "-reps", "2", "-seed", "3"}
	serial := capture(t, cmdValidate, append([]string{"-parallel", "1"}, args...)...)
	for _, want := range []string{"== FCFS (2 replications, randomized sources): all sound = true, backlog sound = true ==",
		"== priority (2 replications, randomized sources): all sound = true, backlog sound = true ==",
		"observed p99", "observed max backlog", "queues checked, 0 over bound"} {
		if !strings.Contains(serial, want) {
			t.Errorf("validate missing %q", want)
		}
	}
	if par := capture(t, cmdValidate, append([]string{"-parallel", "4"}, args...)...); par != serial {
		t.Error("validate output differs across -parallel values")
	}
}

func TestCmdCapacity(t *testing.T) {
	out := capture(t, cmdCapacity)
	if !strings.Contains(out, "FCFS") || !strings.Contains(out, "priority") {
		t.Error("capacity rows missing")
	}
	if !strings.Contains(out, "needs more") || !strings.Contains(out, "fits") {
		t.Errorf("verdicts missing:\n%s", out)
	}
}

func TestCmdBacklog(t *testing.T) {
	out := capture(t, cmdBacklog)
	if !strings.Contains(out, "mission-computer") {
		t.Error("bottleneck port missing")
	}
	// The paper's star groups everything under the single switch.
	for _, want := range []string{"sw0", "sw0 buffer total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("backlog output missing %q", want)
		}
	}
}

// TestCmdBacklogGroupedPerSwitch: on a multi-switch scenario the buffer
// dimensioning table groups output ports under their home switch — every
// directed edge priced: destination ports, BOTH trunk directions, and
// the station uplink queues in their own section, with complete
// per-switch totals (the two ROADMAP deferrals this closes).
func TestCmdBacklogGroupedPerSwitch(t *testing.T) {
	out := capture(t, cmdBacklog, "-config", heteroFixture)
	for _, want := range []string{"architecture dual-split: 2 switch(es), 2 plane(s)",
		"sw0", "sw1", "sw0 buffer total:", "sw1 buffer total:", "trunk ports included",
		"sw0->sw1", "sw1->sw0", // both trunk directions priced
		"station uplink dimensioning", "mc->sw0",
		"all 2 planes price identically"} {
		if !strings.Contains(out, want) {
			t.Errorf("grouped backlog missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "not yet bounded") {
		t.Errorf("stale trunk caveat survived the per-edge rewire:\n%s", out)
	}
	// Every directed edge of the two-switch dual appears: 2 trunk
	// directions + 4 destination ports + 4 uplinks.
	for _, edge := range []string{"sw0->sw1", "sw1->sw0", "ew->sw1", "nav->sw0", "radar->sw1"} {
		if !strings.Contains(out, edge) {
			t.Errorf("edge %s missing:\n%s", edge, out)
		}
	}
	// Ports sort under their switch: mc and nav live on sw0, ew on sw1.
	ew, nav := strings.Index(out, "sw1     ew"), strings.Index(out, "sw0     nav")
	if ew < 0 || nav < 0 {
		t.Fatalf("expected per-switch rows missing (ew@%d nav@%d):\n%s", ew, nav, out)
	}
	if ew < nav {
		t.Errorf("ports not grouped by switch:\n%s", out)
	}
}

// goldenBacklogPath pins the `rtether backlog` table on the committed
// hetero dual fixture byte-for-byte. The fixture was captured BEFORE the
// per-edge rewire, so the rewire's diff shows exactly what changed (the
// trunk rows appearing) and proves the destination-port rows moved not a
// byte. Regenerate with REGEN_GOLDEN=1 go test ./cmd/rtether -run
// TestCmdBacklogGolden — only legitimate when the table intentionally
// changes.
const goldenBacklogPath = "testdata/golden_backlog_dual_hetero.txt"

func TestCmdBacklogGolden(t *testing.T) {
	checkGolden(t, goldenBacklogPath, capture(t, cmdBacklog, "-config", heteroFixture))
}

// goldenTwoSwitchPath pins the default `rtether twoswitch` report — the
// cascaded two-switch bounds and simulated maxima under both approaches —
// byte-for-byte. Regenerate with REGEN_GOLDEN=1 go test ./cmd/rtether
// -run TestCmdTwoSwitchGolden, only when the report intentionally changes.
const goldenTwoSwitchPath = "testdata/golden_twoswitch.txt"

func TestCmdTwoSwitchGolden(t *testing.T) {
	checkGolden(t, goldenTwoSwitchPath, capture(t, cmdTwoSwitch))
}

// checkGolden compares a command's output with a committed fixture, or
// rewrites the fixture when REGEN_GOLDEN is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fixture missing (run with REGEN_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\nwant:\n%s\ngot:\n%s", path, want, got)
	}
}

// TestCmdBacklogDimension: -dimension emits the scenario JSON with the
// derived per-port capacities in the sim section; the document loads
// back, simulates with zero drops, and pipes into validate — the CI
// smoke step `backlog -dimension | validate -config -` in miniature.
func TestCmdBacklogDimension(t *testing.T) {
	out := capture(t, cmdBacklog, "-config", heteroFixture, "-dimension")
	cfg, err := topology.Load(strings.NewReader(out))
	if err != nil {
		t.Fatalf("emitted scenario does not load: %v\n%s", err, out)
	}
	caps := cfg.Sim.QueueCapacitiesBytes
	// 4 uplinks + 2 trunk directions + 3 flow-carrying dest ports; the
	// idle sw1->radar edge is omitted (0 would mean explicitly unbounded).
	if len(caps) != 9 {
		t.Fatalf("%d capacities emitted, want 9: %v", len(caps), caps)
	}
	if _, ok := caps["sw1->radar"]; ok {
		t.Error("idle edge sw1->radar received a capacity (0 = unbounded, not a budget)")
	}
	// The destination-port capacity is the backlog bound the fixture's
	// golden table prints for that port.
	if caps["sw0->mc"] != 290 {
		t.Errorf("sw0->mc capacity = %d B, want 290 B", caps["sw0->mc"])
	}
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Errorf("%d drops with analytically dimensioned queues", res.Dropped)
	}
	// The shell round trip: backlog -dimension | validate -config -.
	old := stdin
	stdin = strings.NewReader(out)
	defer func() { stdin = old }()
	vout := capture(t, cmdValidate, "-config", "-", "-horizon", "30ms")
	if !strings.Contains(vout, "all sound = true, backlog sound = true") {
		t.Errorf("dimensioned scenario validation not sound:\n%s", firstLines(vout, 3))
	}
}

func TestCmdAFDX(t *testing.T) {
	out := capture(t, cmdAFDX)
	for _, want := range []string{"94 virtual links", "jitter budget exceeded", "BAG"} {
		if !strings.Contains(out, want) {
			t.Errorf("afdx output missing %q", want)
		}
	}
}

func TestCmdTwoSwitch(t *testing.T) {
	out := capture(t, cmdTwoSwitch)
	for _, want := range []string{"two-switch", "crosses trunk", "ew/threat-warning"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCmdTopo(t *testing.T) {
	out := capture(t, cmdTopo, "-horizon", "50ms", "-ber", "1e-5")
	for _, want := range []string{"unified network engine", "star", "cascade", "tree", "chain", "dual",
		"dualskew", "worst e2e bound", "redundant", "discarded",
		"degraded dual (any one plane failed)", "degraded dualskew (any one plane failed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("topo output missing %q", want)
		}
	}
	// Every row must be sound.
	if strings.Contains(out, "NO") {
		t.Errorf("topo reports a bound violation:\n%s", out)
	}
	// Family selection narrows the table.
	narrow := capture(t, cmdTopo, "-horizon", "50ms", "-topologies", "star,chain")
	if strings.Contains(narrow, "cascade") {
		t.Error("-topologies did not narrow the families")
	}
	// Unknown family errors.
	if err := cmdTopo([]string{"-topologies", "hypercube"}); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestCmdTopoGridParallelDeterministic(t *testing.T) {
	args := []string{"-grid", "-horizon", "30ms", "-reps", "2", "-seed", "9",
		"-topologies", "star,dual"}
	serial := capture(t, cmdTopo, append([]string{"-parallel", "1"}, args...)...)
	par := capture(t, cmdTopo, append([]string{"-parallel", "8"}, args...)...)
	if serial != par {
		t.Errorf("topo -grid output differs between -parallel=1 and -parallel=8:\n%s\nvs\n%s", serial, par)
	}
	if !strings.Contains(serial, "cross-validation (M3)") {
		t.Error("grid header missing")
	}
	if !strings.Contains(serial, "cells with bound violations: 0 of") {
		t.Errorf("grid verdict missing:\n%s", serial)
	}
}

func TestCmdSimulateTraceCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	out := capture(t, cmdSimulate, "-horizon", "50ms", "-trace", path)
	if !strings.Contains(out, "lifecycle events") {
		t.Error("trace summary missing")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time_ns,kind,") {
		t.Error("trace CSV header missing")
	}
}

func TestCmdSchedulers(t *testing.T) {
	out := capture(t, cmdSchedulers)
	for _, want := range []string{"FCFS", "strict priority", "preemptive", "deficit round robin"} {
		if !strings.Contains(out, want) {
			t.Errorf("schedulers output missing %q", want)
		}
	}
}

func TestCmdScenario(t *testing.T) {
	out := capture(t, cmdScenario)
	if !strings.Contains(out, `"link_rate_bps": 10000000`) {
		t.Error("scenario JSON missing link rate")
	}
	// The emitted scenario must load back.
	if _, err := topology.Load(strings.NewReader(out)); err != nil {
		t.Errorf("emitted scenario does not load: %v", err)
	}
}

func TestCommandsWithCustomConfig(t *testing.T) {
	// Round-trip through a file to exercise the -config path.
	path := filepath.Join(t.TempDir(), "scenario.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.Default().Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := capture(t, cmdFigure1, "-config", path)
	if !strings.Contains(out, "real-case") {
		t.Error("config not honoured")
	}
	// Missing file errors.
	if err := cmdFigure1([]string{"-config", path + ".missing"}); err == nil {
		t.Error("missing config accepted")
	}
}

// heteroFixture is the committed dual-redundant heterogeneous-rate
// scenario pinned by the topology package's golden round-trip test.
const heteroFixture = "../../internal/topology/testdata/dual_hetero.json"

func TestCmdScenarioTopologyTemplate(t *testing.T) {
	out := capture(t, cmdScenario, "-topology", "dual")
	for _, want := range []string{`"network"`, `"planes": 2`, `"stations"`, "real-case-dual"} {
		if !strings.Contains(out, want) {
			t.Errorf("template missing %q", want)
		}
	}
	// The emitted template must load back.
	if _, err := topology.Load(strings.NewReader(out)); err != nil {
		t.Errorf("emitted template does not load: %v", err)
	}
	// Unknown family errors.
	if err := cmdScenario([]string{"-topology", "hypercube"}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestCmdConfigStdin proves the shell round trip the CI smoke step relies
// on: rtether scenario | rtether validate -config -.
func TestCmdConfigStdin(t *testing.T) {
	template := capture(t, cmdScenario, "-topology", "dual")
	old := stdin
	stdin = strings.NewReader(template)
	defer func() { stdin = old }()
	out := capture(t, cmdValidate, "-config", "-", "-horizon", "30ms")
	if !strings.Contains(out, "all sound = true") {
		t.Errorf("piped scenario validation not sound:\n%s", firstLines(out, 3))
	}
}

func TestCmdSimulateCustomNetwork(t *testing.T) {
	out := capture(t, cmdSimulate, "-config", heteroFixture)
	// The sim section fixes the horizon (100ms) and the network section
	// the architecture (2 switches, 2 planes).
	if !strings.Contains(out, "simulated 100ms under priority on dual-split (2 switches, 2 planes;") {
		t.Errorf("scenario sections not honoured:\n%s", firstLines(out, 2))
	}
	// Explicit flags override the sim section.
	out = capture(t, cmdSimulate, "-config", heteroFixture, "-horizon", "40ms", "-approach", "fcfs")
	if !strings.Contains(out, "simulated 40ms under FCFS on dual-split") {
		t.Errorf("flags did not override sim section:\n%s", firstLines(out, 2))
	}
}

// TestCmdValidateCustomNetworkDeterministic is the acceptance criterion:
// a custom heterogeneous-rate dual-redundant scenario runs through
// validate with same-seed output bit-identical at any -parallel value,
// and every connection sound.
func TestCmdValidateCustomNetworkDeterministic(t *testing.T) {
	args := []string{"-config", heteroFixture, "-horizon", "50ms", "-reps", "3", "-seed", "42"}
	serial := capture(t, cmdValidate, append([]string{"-parallel", "1"}, args...)...)
	par := capture(t, cmdValidate, append([]string{"-parallel", "8"}, args...)...)
	if serial != par {
		t.Errorf("custom-network validate differs across -parallel values:\n%s\nvs\n%s", serial, par)
	}
	if strings.Count(serial, "all sound = true") != 2 {
		t.Errorf("custom-network validation not sound:\n%s", firstLines(serial, 3))
	}
}

func TestCmdTopoWithScenarioNetwork(t *testing.T) {
	out := capture(t, cmdTopo, "-config", heteroFixture, "-horizon", "30ms")
	if !strings.Contains(out, "scenario:dual-split") {
		t.Errorf("custom network row missing:\n%s", firstLines(out, 5))
	}
	if strings.Contains(out, "NO") {
		t.Errorf("custom network row unsound:\n%s", out)
	}
}

// TestCmdTopoHonoursSimSection: without explicit flags, the scenario's
// sim section (horizon 100ms, priority) drives the topo run; explicit
// flags still override.
func TestCmdTopoHonoursSimSection(t *testing.T) {
	out := capture(t, cmdTopo, "-config", heteroFixture, "-topologies", "star")
	if !strings.Contains(out, "(horizon 100ms, BER 0)") {
		t.Errorf("sim-section horizon not honoured:\n%s", firstLines(out, 1))
	}
	out = capture(t, cmdTopo, "-config", heteroFixture, "-topologies", "star", "-horizon", "20ms")
	if !strings.Contains(out, "(horizon 20ms, BER 0)") {
		t.Errorf("explicit -horizon did not override:\n%s", firstLines(out, 1))
	}
}

// TestCmdValidatePinnedSourceRegime: a scenario explicitly pinning
// align_phases keeps the critical instant even under -reps > 1.
func TestCmdValidatePinnedSourceRegime(t *testing.T) {
	out := capture(t, cmdValidate, "-config", heteroFixture, "-reps", "2", "-horizon", "30ms")
	if !strings.Contains(out, "critical-instant sources") {
		t.Errorf("pinned source regime clobbered by -reps:\n%s", firstLines(out, 1))
	}
	// The built-in scenario pins nothing: -reps > 1 randomizes as before.
	out = capture(t, cmdValidate, "-reps", "2", "-horizon", "30ms")
	if !strings.Contains(out, "randomized sources") {
		t.Errorf("unpinned scenario did not randomize:\n%s", firstLines(out, 1))
	}
}

// skewedDualFixture is the annotated redundancy-management scenario of
// EXPERIMENTS.md: an asymmetric dual (plane B at half rate, releasing
// 150µs late over 3µs-longer cables) under an 800µs integrity window.
const skewedDualFixture = "../../examples/topologies/skewed_dual.json"

// TestCmdValidateSkewedDual is the acceptance criterion's validation row:
// on the skewed dual, across replicated seeds, every observed first-copy
// latency stays within the skew-aware bound under both disciplines, and
// the output is bit-identical at any -parallel value.
func TestCmdValidateSkewedDual(t *testing.T) {
	args := []string{"-config", skewedDualFixture, "-reps", "3", "-seed", "42"}
	serial := capture(t, cmdValidate, append([]string{"-parallel", "1"}, args...)...)
	if got := strings.Count(serial, "all sound = true"); got != 2 {
		t.Errorf("skewed dual not sound under both approaches (%d of 2):\n%s", got, serial)
	}
	if par := capture(t, cmdValidate, append([]string{"-parallel", "8"}, args...)...); par != serial {
		t.Error("skewed-dual validate differs across -parallel values")
	}
}

// TestCmdTopoSkewedScenario: a skewed-dual scenario file leads the topo
// table with the skew-aware bound and surfaces integrity-window discards.
func TestCmdTopoSkewedScenario(t *testing.T) {
	out := capture(t, cmdTopo, "-config", skewedDualFixture, "-topologies", "star")
	if !strings.Contains(out, "scenario:skewed-dual-star") {
		t.Errorf("scenario row missing:\n%s", firstLines(out, 5))
	}
	if !strings.Contains(out, "degraded scenario:skewed-dual-star (any one plane failed)") {
		t.Errorf("degraded bound line missing:\n%s", out)
	}
	if strings.Contains(out, "NO") {
		t.Errorf("skewed scenario unsound:\n%s", out)
	}
}

// TestCmdTopoUnstablePlane: a plane negotiated down so far it is
// over-subscribed has an infinite bound. The all-up row still prints
// (the stable plane wins the first-copy minimum) and the degraded line
// reports the unbounded verdict instead of aborting the command.
func TestCmdTopoUnstablePlane(t *testing.T) {
	doc, err := os.ReadFile(skewedDualFixture)
	if err != nil {
		t.Fatal(err)
	}
	slow := strings.Replace(string(doc), `"rate_scale": 0.5,`, `"rate_scale": 0.0004,`, 1)
	if slow == string(doc) {
		t.Fatal("fixture anchor not found")
	}
	path := filepath.Join(t.TempDir(), "slow-plane.json")
	if err := os.WriteFile(path, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, cmdTopo, "-config", path, "-topologies", "star")
	if !strings.Contains(out, "scenario:skewed-dual-star") {
		t.Errorf("all-up row missing:\n%s", firstLines(out, 5))
	}
	if !strings.Contains(out, "unbounded — a failure leaves only over-subscribed planes") {
		t.Errorf("unbounded degraded verdict missing:\n%s", out)
	}
}

// TestCmdTopoLastSurvivingPlane: a dual already running on its last
// surviving plane has no one-more-failure mode — topo must print its
// table (without a degraded line) instead of aborting.
func TestCmdTopoLastSurvivingPlane(t *testing.T) {
	doc, err := os.ReadFile(skewedDualFixture)
	if err != nil {
		t.Fatal(err)
	}
	failed := strings.Replace(string(doc), `"rate_scale": 0.5,`, `"fail": true, "rate_scale": 0.5,`, 1)
	if failed == string(doc) {
		t.Fatal("fixture anchor not found")
	}
	path := filepath.Join(t.TempDir(), "one-plane.json")
	if err := os.WriteFile(path, []byte(failed), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, cmdTopo, "-config", path, "-topologies", "star")
	if !strings.Contains(out, "scenario:skewed-dual-star") {
		t.Errorf("table missing:\n%s", firstLines(out, 5))
	}
	if strings.Contains(out, "degraded scenario:") {
		t.Errorf("degraded line printed with a single surviving plane:\n%s", out)
	}
}

func TestCmdBaselineWithScenario(t *testing.T) {
	out := capture(t, cmdBaseline, "-config", heteroFixture)
	if !strings.Contains(out, "BC=mc") {
		t.Errorf("scenario bus controller not honoured:\n%s", firstLines(out, 2))
	}
}

func TestCmdAnalyzeTreeComposed(t *testing.T) {
	out := capture(t, cmdAnalyze, "-config", heteroFixture, "-e2e")
	if !strings.Contains(out, `tree-composed over "dual-split": 2 switches, 2 planes`) {
		t.Errorf("tree-composed model line missing:\n%s", firstLines(out, 2))
	}
}

func TestParseApproach(t *testing.T) {
	if _, err := parseApproach("fcfs"); err != nil {
		t.Error(err)
	}
	if _, err := parseApproach("PRIORITY"); err != nil {
		t.Error(err)
	}
	if _, err := parseApproach("weird"); err == nil {
		t.Error("bad approach accepted")
	}
}

func TestHelpers(t *testing.T) {
	if mark(true) != "yes" || mark(false) != "NO" {
		t.Error("mark broken")
	}
	if got := firstN([]string{"a", "b", "c"}, 2); len(got) != 3 || got[2] != "…" {
		t.Errorf("firstN = %v", got)
	}
	if got := firstN([]string{"a"}, 2); len(got) != 1 {
		t.Errorf("firstN = %v", got)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
