package core

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestBufferSizingPreventsLoss is experiment S2: dimensioning every queue
// by the analytic backlog bound guarantees zero loss at the critical
// instant — the "no messages lost if buffers [don't] overflow" half of the
// paper's reliability claim, closed constructively.
func TestBufferSizingPreventsLoss(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.FCFS)
	backlogs, err := analysis.EdgeBacklogs(set, cfg.AnalysisConfig(), analysis.SingleSwitchTree(set.Stations()))
	if err != nil {
		t.Fatal(err)
	}
	var worst simtime.Size
	for _, e := range backlogs.Edges {
		if e.Kind == analysis.EdgeDest && e.Bound > worst {
			worst = e.Bound
		}
	}
	// One uniform capacity: the worst destination port's bound (rounded
	// up to bytes).
	cfg.QueueCapacity = simtime.Bytes(worst.ByteCount())
	cfg.Horizon = simtime.Second
	res, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Errorf("%d drops with analytically sized buffers (capacity %v)", res.Dropped, cfg.QueueCapacity)
	}
	// And the bound is not grossly oversized: halving it must reintroduce
	// loss at the critical instant, or the bound is trivially loose.
	cfg.QueueCapacity = simtime.Bytes(worst.ByteCount() / 8)
	res, err = Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("an eighth of the backlog bound still never drops — bound implausibly loose")
	}
}

// TestBERAccounting verifies the loss model end to end: on a noisy medium
// frames vanish, are counted, and every release is otherwise conserved.
func TestBERAccounting(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 500 * simtime.Millisecond
	cfg.BER = 1e-6 // ~0.07% loss per minimum frame, two links per path
	res, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupted == 0 {
		t.Fatal("no corruption at BER 1e-6 over half a second of traffic")
	}
	released, delivered := 0, 0
	for _, f := range res.Flows {
		released += f.Released
		delivered += f.Delivered
	}
	if delivered >= released {
		t.Error("corruption did not reduce deliveries")
	}
	// Conservation: everything released is delivered, corrupted, or still
	// in flight at the horizon (bounded by the station count).
	missing := released - delivered - res.Corrupted
	if missing < 0 || missing > 200 {
		t.Errorf("conservation: released %d, delivered %d, corrupted %d (missing %d)",
			released, delivered, res.Corrupted, missing)
	}
	// Clean medium: zero corruption.
	cfg.BER = 0
	res, err = Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupted != 0 {
		t.Errorf("corruption on a clean medium: %d", res.Corrupted)
	}
}

// TestTraceRecorder verifies the lifecycle log: every connection shows
// released→delivered in causal order, and the greedy catalog (conforming
// sources) is never shaped.
func TestTraceRecorder(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 100 * simtime.Millisecond
	rec := trace.NewRecorder(0)
	cfg.Recorder = rec
	if _, err := Simulate(set, cfg); err != nil {
		t.Fatal(err)
	}
	evs := rec.ByConn("nav/attitude")
	if len(evs) == 0 {
		t.Fatal("no events for nav/attitude")
	}
	var lastRelease simtime.Time = -1
	releases, deliveries := 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case trace.Released:
			releases++
			lastRelease = ev.At
		case trace.Delivered:
			deliveries++
			if ev.At < lastRelease {
				t.Error("delivery before release")
			}
		case trace.Shaped:
			t.Error("conforming periodic source was shaped")
		}
	}
	if releases == 0 || deliveries == 0 {
		t.Errorf("releases %d, deliveries %d", releases, deliveries)
	}
	if rec.Truncated() != 0 {
		t.Error("unbounded recorder truncated")
	}
}

// TestPCAPFromSimulation captures simulated traffic as pcap and sanity
// checks the file structure.
func TestPCAPFromSimulation(t *testing.T) {
	set := traffic.RealCase()
	cfg := DefaultSimConfig(analysis.Priority)
	cfg.Horizon = 50 * simtime.Millisecond
	var buf bytes.Buffer
	p := trace.NewPCAP(&buf)
	cfg.PCAP = p
	res, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Packets != res.TotalDelivered() {
		t.Errorf("pcap has %d packets for %d deliveries", p.Packets, res.TotalDelivered())
	}
	if buf.Len() < 24+p.Packets*(16+64) {
		t.Errorf("pcap file implausibly small: %d bytes", buf.Len())
	}
}
