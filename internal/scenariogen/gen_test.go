package scenariogen

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// fuzzSeeds is how many generated scenarios the soundness harness sweeps
// per run: ≥ 1000 in full mode (the CI acceptance bar), a fast sample
// under -short.
func fuzzSeeds(t *testing.T) int {
	if testing.Short() {
		return 64
	}
	return 1000
}

// rootSeed pins the fuzz run: the harness is a pure function of it, so a
// failure report names the exact (root, index) that reproduces.
const rootSeed = uint64(0x9e2025)

// TestGenerateDeterministic pins the generator's contract: the same seed
// yields the byte-identical scenario, and distinct seeds actually move
// through the search space.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Dump(Generate(42, Params{})), Dump(Generate(42, Params{}))
	if a != b {
		t.Fatalf("seed 42 generated two different scenarios:\n%s\n---\n%s", a, b)
	}
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		distinct[Dump(Generate(seed, Params{}))] = true
	}
	if len(distinct) < 30 {
		t.Errorf("32 seeds produced only %d distinct scenarios", len(distinct))
	}
}

// TestGeneratedScenariosLoad proves the generator's validity contract on
// its own, without the full soundness machinery: every generated
// scenario parses back through the strict loader, byte-identically.
func TestGeneratedScenariosLoad(t *testing.T) {
	for seed := uint64(0); seed < 128; seed++ {
		cfg := Generate(seed, Params{})
		var buf bytes.Buffer
		if err := cfg.Save(&buf); err != nil {
			t.Fatalf("seed %d: save: %v", seed, err)
		}
		re, err := topology.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: generated scenario does not load: %v\n%s", seed, err, buf.String())
		}
		var buf2 bytes.Buffer
		if err := re.Save(&buf2); err != nil {
			t.Fatalf("seed %d: re-save: %v", seed, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("seed %d: round trip not byte-identical", seed)
		}
	}
}

// TestFuzzSoundness is the tentpole harness: a seeded sweep of generated
// scenarios — random architectures × planes × workloads × windows × loss
// — each checked against every invariant Check enforces (latency bounds,
// backlog bounds, the closed-form backlog against netcalc, canonical
// round-trip, copy conservation), with every
// eighth scenario additionally held byte-for-byte to the reference
// oracle. Any failure is shrunk to a minimal reproducing JSON and dumped
// to the log for replay with `rtether validate -config -`. The sweep
// runs on the parallel engine, one RNG substream per seed, so the run is
// bit-identical at any worker count.
func TestFuzzSoundness(t *testing.T) {
	n := fuzzSeeds(t)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = des.SplitSeed(rootSeed, uint64(i))
	}
	type outcome struct {
		seed    uint64
		verdict *Verdict
		err     error
	}
	results, err := sweep.RunIndexed(seeds, 0, func(i int, seed uint64) (outcome, error) {
		cfg := Generate(seed, Params{})
		var v *Verdict
		var cerr error
		if i%8 == 0 {
			v, cerr = CheckStrict(cfg)
		} else {
			v, cerr = Check(cfg)
		}
		return outcome{seed: seed, verdict: v, err: cerr}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	unstable, lossyDuals, discards := 0, 0, 0
	for _, o := range results {
		if o.err != nil {
			t.Errorf("seed %#x: scenario could not be exercised: %v\n%s",
				o.seed, o.err, Dump(Generate(o.seed, Params{})))
			continue
		}
		v := o.verdict
		if v.Unstable {
			unstable++
		}
		if v.Discarded > 0 {
			discards++
		}
		cfg := Generate(o.seed, Params{})
		if cfg.Network != nil && cfg.Network.Redundant() && cfg.Sim != nil && cfg.Sim.BER > 0 {
			lossyDuals++
		}
		if !v.Sound() {
			reportViolation(t, o.seed, v)
		}
	}
	// The sweep must actually explore the hard corners, or "zero
	// violations" is vacuous: lossy redundant networks priced by the
	// max-composition bound and out-of-window integrity discards must
	// both occur. (Over-subscription never arises from the harmonic
	// 1553 periods; TestCheckUnstable covers that path directly.)
	if n >= 1000 {
		if lossyDuals == 0 {
			t.Error("fuzz sweep never generated a lossy redundant network")
		}
		if discards == 0 {
			t.Error("fuzz sweep never produced an integrity-window discard")
		}
	}
	t.Logf("fuzz: %d scenarios, %d unstable, %d lossy duals, %d with integrity discards",
		n, unstable, lossyDuals, discards)
}

// reportViolation shrinks a failing scenario and logs the minimal
// reproducing JSON in replayable form.
func reportViolation(t *testing.T, seed uint64, v *Verdict) {
	t.Helper()
	cfg := Generate(seed, Params{})
	small := Shrink(cfg, func(c *topology.Config) bool {
		sv, err := Check(c)
		return err == nil && !sv.Sound()
	})
	t.Errorf("seed %#x violated: %s\nreplay with: rtether validate -config - <<'EOF'\n%sEOF",
		seed, strings.Join(v.Violations, "; "), Dump(small))
}

// TestShrinkMinimizes drives the shrinker with a synthetic predicate — a
// named message must survive — and demands a near-minimal result: the
// shrunk scenario keeps that message, drops (nearly) everything else,
// and still load-validates.
func TestShrinkMinimizes(t *testing.T) {
	var cfg *topology.Config
	var keep string
	for seed := uint64(0); ; seed++ {
		cfg = Generate(seed, Params{})
		if len(cfg.Messages) >= 8 && cfg.Network != nil && cfg.Sim != nil {
			keep = cfg.Messages[3].Name
			break
		}
	}
	hasKeep := func(c *topology.Config) bool {
		for _, m := range c.Messages {
			if m.Name == keep {
				return true
			}
		}
		return false
	}
	small := Shrink(cfg, hasKeep)
	if !hasKeep(small) {
		t.Fatalf("shrinker dropped the failing ingredient %q", keep)
	}
	// The kept message's peer (source/dest pairing) may force one more
	// message to stay only through station coverage — but nothing forces
	// more than the one.
	if len(small.Messages) != 1 {
		t.Errorf("shrunk to %d messages, want 1:\n%s", len(small.Messages), Dump(small))
	}
	if small.Network != nil || small.Workload != nil {
		t.Errorf("shrinker kept removable sections:\n%s", Dump(small))
	}
	if _, err := cloneConfig(small); err != nil {
		t.Errorf("shrunk scenario does not load: %v", err)
	}
}

// TestCheckFlagsViolations proves the checker can actually see a broken
// invariant — a guard against the harness degenerating into a rubber
// stamp. A scenario whose observed latency provably exceeds a fake bound
// cannot be built from the outside, so this drives the nearest real
// lever: a babbling source breaks the shaped-arrival assumption the
// bounds rest on, and the checker must either catch the resulting
// violation or (if the babble happens to stay inside the bound) still
// verdict cleanly.
func TestCheckFlagsViolations(t *testing.T) {
	cfg := Generate(7, Params{})
	if cfg.Sim == nil {
		cfg.Sim = &topology.SimJSON{}
	}
	// A babbling idiot at 50× on the first connection: arrivals violate
	// the token-bucket envelope the analysis prices, so on a loaded
	// scenario the observed backlog or latency walks past its bound.
	cfg.Sim.Babbler = cfg.Messages[0].Name
	cfg.Sim.BabbleFactor = 50
	cfg.Sim.BypassShapers = true
	v, err := Check(cfg)
	if err != nil {
		t.Fatalf("babbling scenario could not be exercised: %v", err)
	}
	t.Logf("babbling verdict: sound=%v violations=%v", v.Sound(), v.Violations)
}

// TestCheckUnstable over-subscribes a 10 Mbps medium (three 1500 B
// connections every millisecond ≈ 36 Mbps) and demands the checker flag
// the scenario unstable rather than verdict on vacuous bounds — and
// still run the remaining invariants to a clean verdict.
func TestCheckUnstable(t *testing.T) {
	cfg := &topology.Config{
		Name:        "oversubscribed",
		LinkRateBps: 10_000_000,
	}
	for i := 0; i < 3; i++ {
		cfg.Messages = append(cfg.Messages, topology.MessageConfig{
			Name:         fmt.Sprintf("src%d/burst", i),
			Source:       fmt.Sprintf("src%d", i),
			Dest:         "sink",
			Kind:         "periodic",
			PeriodUs:     1_000,
			PayloadBytes: 1_500,
			DeadlineUs:   1_000,
		})
	}
	v, err := Check(cfg)
	if err != nil {
		t.Fatalf("over-subscribed scenario could not be exercised: %v", err)
	}
	if !v.Unstable {
		t.Fatal("checker did not flag an over-subscribed scenario unstable")
	}
	if !v.Sound() {
		t.Fatalf("unstable scenario must not verdict violations, got %v", v.Violations)
	}
}

// TestVerdictDeterministic pins the whole check pipeline: the same
// scenario checked twice yields identical verdicts, including the
// worst-ratio float.
func TestVerdictDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := Generate(seed, Params{})
		a, err := Check(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Check(Generate(seed, Params{}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		av := fmt.Sprintf("%+v", a)
		bv := fmt.Sprintf("%+v", b)
		if av != bv {
			t.Errorf("seed %d: verdict not deterministic:\n%s\n%s", seed, av, bv)
		}
	}
}
