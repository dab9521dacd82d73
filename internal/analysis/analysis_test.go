package analysis

import (
	"errors"
	"testing"

	"repro/internal/simtime"
	"repro/internal/traffic"
)

const ms = simtime.Millisecond

// handSpecs builds a small hand-checkable spec set:
// P0: b=1000 bits, T=20ms; P1: b=2000, T=40ms; P2: b=1500, T=80ms;
// P3: b=3000, T=320ms.
func handSpecs() []FlowSpec {
	mk := func(name string, prio traffic.Priority, kind traffic.Kind, b int64, period simtime.Duration, deadline simtime.Duration) FlowSpec {
		m := &traffic.Message{
			Name: name, Source: "s-" + name, Dest: "mc", Kind: kind,
			Period: period, Payload: simtime.Size(b), Deadline: deadline, Priority: prio,
		}
		return FlowSpec{Msg: m, B: simtime.Size(b), R: m.Rate(simtime.Size(b))}
	}
	return []FlowSpec{
		mk("urgent", traffic.P0, traffic.Sporadic, 1000, 20*ms, 3*ms),
		mk("periodic", traffic.P1, traffic.Periodic, 2000, 40*ms, 40*ms),
		mk("sporadic", traffic.P2, traffic.Sporadic, 1500, 80*ms, 80*ms),
		mk("background", traffic.P3, traffic.Sporadic, 3000, 320*ms, 640*ms),
	}
}

func cfg10M() Config {
	return Config{LinkRate: 10 * simtime.Mbps, TTechno: 140 * simtime.Microsecond, Tagged: true}
}

func TestFCFSBoundHandComputed(t *testing.T) {
	// D = (1000+2000+1500+3000)/10e6 + 140µs = 750µs + 140µs.
	got, err := FCFSBound(handSpecs(), cfg10M())
	if err != nil {
		t.Fatal(err)
	}
	if want := 750*simtime.Microsecond + 140*simtime.Microsecond; got != want {
		t.Errorf("D = %v, want %v", got, want)
	}
}

func TestPriorityBoundHandComputed(t *testing.T) {
	specs := handSpecs()
	cfg := cfg10M()
	// D_0 = (1000 + max(2000,1500,3000))/10e6 + t = 400µs + 140µs.
	// D_1 = (1000+2000 + max(1500,3000))/(10e6 − r0) + t, r0 = 1000/20ms = 50kbps.
	// D_2 = (1000+2000+1500 + 3000)/(10e6 − r0 − r1), r1 = 2000/40ms = 50kbps.
	// D_3 = (7500 + 0)/(10e6 − r0 − r1 − r2), r2 = 1500/80ms = 18750bps.
	r0, r1, r2 := 50e3, 50e3, 18750.0
	wants := []float64{
		4000 / 10e6,
		6000 / (10e6 - r0),
		7500 / (10e6 - r0 - r1),
		7500 / (10e6 - r0 - r1 - r2),
	}
	for p := traffic.P0; p < traffic.NumPriorities; p++ {
		got, err := PriorityBound(specs, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := secondsToDuration(wants[p]) + cfg.TTechno
		if got != want {
			t.Errorf("D_%d = %v, want %v", p, got, want)
		}
	}
}

func TestBoundsAgreeWithNetworkCalculus(t *testing.T) {
	// The closed forms and the generic NC pipeline must agree to within
	// the 1 ns rounding on every destination multiplexer of the real case.
	set := traffic.RealCase()
	cfg := cfg10M()
	specs := Specs(set, cfg)
	byDest := groupBy(specs, func(f FlowSpec) string { return f.Msg.Dest })
	const tol = 2 // ns: both sides ceil independently
	for dest, port := range byDest {
		cf, err := FCFSBound(port, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nc, err := FCFSBoundNC(port, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := cf - nc; diff < -tol || diff > tol {
			t.Errorf("%s: FCFS closed form %v vs NC %v", dest, cf, nc)
		}
		for p := traffic.P0; p < traffic.NumPriorities; p++ {
			cf, err := PriorityBound(port, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nc, err := PriorityBoundNC(port, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if diff := cf - nc; diff < -tol || diff > tol {
				t.Errorf("%s class %v: closed form %v vs NC %v", dest, p, cf, nc)
			}
		}
	}
}

func TestUnstableDetected(t *testing.T) {
	m := &traffic.Message{Name: "hog", Source: "a", Dest: "b", Kind: traffic.Periodic,
		Period: simtime.Millisecond, Payload: simtime.Bytes(1500),
		Deadline: simtime.Millisecond, Priority: traffic.P1}
	b := simtime.Bytes(1538)
	hog := FlowSpec{Msg: m, B: b, R: m.Rate(b)} // ~12.3 Mbps > 10 Mbps
	if _, err := FCFSBound([]FlowSpec{hog}, cfg10M()); !errors.Is(err, ErrUnstable) {
		t.Errorf("FCFS err = %v", err)
	}
	if _, err := PriorityBound([]FlowSpec{hog}, traffic.P1, cfg10M()); !errors.Is(err, ErrUnstable) {
		t.Errorf("priority err = %v", err)
	}
	if _, err := FCFSBoundNC([]FlowSpec{hog}, cfg10M()); !errors.Is(err, ErrUnstable) {
		t.Errorf("FCFS NC err = %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{LinkRate: 0}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	if err := (Config{LinkRate: 1, TTechno: -1}).Validate(); err == nil {
		t.Error("negative t_techno accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	if DefaultConfig().LinkRate != 10*simtime.Mbps {
		t.Error("paper uses 10 Mbps")
	}
}

func TestSpecsWireSizes(t *testing.T) {
	set := traffic.RealCase()
	specs := Specs(set, cfg10M())
	if len(specs) != len(set.Messages) {
		t.Fatalf("%d specs for %d messages", len(specs), len(set.Messages))
	}
	minWire := simtime.Bytes(84) // minimum frame + preamble + IFG
	for _, f := range specs {
		if f.B < minWire {
			t.Errorf("%s: wire size %v below minimum-frame cost", f.Msg.Name, f.B)
		}
		// rᵢ ≥ bᵢ/Tᵢ (rounded up).
		wantR := float64(f.B.Bits()) / f.Msg.Period.Seconds()
		if float64(f.R.BitsPerSecond()) < wantR-1 {
			t.Errorf("%s: rate %v below b/T = %.1f", f.Msg.Name, f.R, wantR)
		}
	}
}

func TestAggregateHelpers(t *testing.T) {
	specs := handSpecs()
	if SumB(specs) != 7500 {
		t.Errorf("SumB = %v", SumB(specs))
	}
	if MaxB(specs) != 3000 {
		t.Errorf("MaxB = %v", MaxB(specs))
	}
	if MaxB(nil) != 0 {
		t.Error("MaxB of empty should be 0")
	}
	classes := ByPriority(specs)
	for p := traffic.P0; p < traffic.NumPriorities; p++ {
		if len(classes[p]) != 1 {
			t.Errorf("class %v has %d specs", p, len(classes[p]))
		}
	}
}

func TestBacklogBound(t *testing.T) {
	specs := handSpecs()
	got, err := BacklogBound(specs, cfg10M())
	if err != nil {
		t.Fatal(err)
	}
	// v = Σb + Σr·T = 7500 + (50e3+50e3+18750+9375)·140e-6 ≈ 7517.9 → 7518.
	if got < 7500 || got > 7600 {
		t.Errorf("backlog = %v, want ≈7518 bits", got)
	}
}

// TestBacklogBoundMatchesNetcalcAtBoundaries pins the closed-form
// backlog bound Σbᵢ + Σrᵢ·t_techno to the netcalc vertical deviation it
// replaced (BacklogBoundNC), bit for bit and on ErrUnstable, at the
// numerical edges: an aggregate rate one bit/s below, at and above the
// link rate, an edge no flow crosses, and a 1 bit/s link — each with no
// relaying latency (station uplinks) and with the paper's 140 µs.
func TestBacklogBoundMatchesNetcalcAtBoundaries(t *testing.T) {
	const c = 10 * simtime.Mbps
	flow := func(p traffic.Priority, b simtime.Size, r simtime.Rate) FlowSpec {
		return FlowSpec{Msg: &traffic.Message{Name: p.String(), Priority: p}, B: b, R: r}
	}
	// Two classes whose rates sum to C + delta.
	split := func(delta simtime.Rate) []FlowSpec {
		return []FlowSpec{flow(traffic.P0, 1000, 3*simtime.Mbps), flow(traffic.P3, 12304, c-3*simtime.Mbps+delta)}
	}
	cases := []struct {
		name     string
		specs    []FlowSpec
		rate     simtime.Rate
		unstable bool
	}{
		{"sum r = C-1", split(-1), c, false},
		{"sum r = C", split(0), c, false},
		{"sum r = C+1", split(1), c, true},
		{"no flow", nil, c, false},
		{"1 bit/s link, no flow", nil, simtime.BitPerSecond, false},
		{"1 bit/s link, 1 bit/s flow", []FlowSpec{flow(traffic.P2, 1000, 1)}, simtime.BitPerSecond, false},
		{"1 bit/s link, 2 bit/s flow", []FlowSpec{flow(traffic.P2, 1000, 2)}, simtime.BitPerSecond, true},
	}
	for _, tc := range cases {
		for _, tt := range []simtime.Duration{0, 140 * simtime.Microsecond} {
			cfg := Config{LinkRate: tc.rate, TTechno: tt}
			got, gotErr := BacklogBound(tc.specs, cfg)
			want, wantErr := BacklogBoundNC(tc.specs, cfg)
			if gotErr != nil && !errors.Is(gotErr, ErrUnstable) {
				t.Fatalf("%s, t_techno %v: %v", tc.name, tt, gotErr)
			}
			if (gotErr != nil) != tc.unstable || (wantErr != nil) != tc.unstable {
				t.Errorf("%s, t_techno %v: unstable closed form %v, netcalc %v, want %t", tc.name, tt, gotErr, wantErr, tc.unstable)
			}
			if got != want {
				t.Errorf("%s, t_techno %v: closed form %d bits, netcalc %d bits", tc.name, tt, got.Bits(), want.Bits())
			}
		}
	}
	// The formula itself, at Σr = C: 13304 + 10⁷·140·10⁻⁶ bits.
	if got, err := BacklogBound(split(0), cfg10M()); err != nil || got != 14704 {
		t.Errorf("backlog at Σr = C = (%d, %v), want 14704 bits", got.Bits(), err)
	}
}

// TestBacklogBoundExactBelowNetcalcTolerance pins the one latency where
// the closed form and the netcalc oracle part ways, in the closed form's
// favour: at t_techno = 1 ns the rate-latency knee lies within netcalc's
// 1e-9 abscissa tolerance, so its curve normalization merges the knee
// into the origin and prices Σbᵢ alone, while the true bound is
// ⌈Σbᵢ + Σrᵢ·1 ns⌉. Scenario files give t_techno in whole microseconds,
// so no scenario reaches this; the Go API can.
func TestBacklogBoundExactBelowNetcalcTolerance(t *testing.T) {
	f := FlowSpec{Msg: &traffic.Message{Name: "f", Priority: traffic.P1}, B: 1000, R: 5 * simtime.Mbps}
	for _, c := range []struct {
		ttechno simtime.Duration
		want    simtime.Size
	}{{1, 1001}, {2, 1001}, {simtime.Microsecond, 1005}} {
		cfg := Config{LinkRate: 10 * simtime.Mbps, TTechno: c.ttechno}
		if got, err := BacklogBound([]FlowSpec{f}, cfg); err != nil || got != c.want {
			t.Errorf("t_techno %v: backlog (%d, %v), want %d bits", c.ttechno, got.Bits(), err, c.want.Bits())
		}
	}
}

func TestTransmissionFloor(t *testing.T) {
	f := handSpecs()[0] // 1000 bits at 10 Mbps = 100 µs, + 140 µs.
	if got := TransmissionFloor(f, cfg10M()); got != 240*simtime.Microsecond {
		t.Errorf("floor = %v", got)
	}
}

func TestApproachString(t *testing.T) {
	if FCFS.String() != "FCFS" || Priority.String() != "priority" {
		t.Error("approach strings broken")
	}
	if Approach(9).String() == "" {
		t.Error("unknown approach should format")
	}
}
