package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10_000, 99.9}, // exactly 10 samples beyond the 99.9th
		{9_999, 99},
		{1_000, 99},
		{999, 98},
		{200, 95},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0}, // not even the median has ten samples beyond it
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(1000-i) * time.Millisecond // reversed: summarize sorts
	}
	got := summarize(samples)
	if got.N != 1000 || got.P50 != 500*time.Millisecond || got.P99 != 990*time.Millisecond ||
		got.TailPct != 99 || got.Tail != got.P99 {
		t.Errorf("summarize = %+v", got)
	}
}

func TestWindowRate(t *testing.T) {
	// 2,000 operations: two windows, 1,000 done in the first second and
	// 1,000 in the next four.
	var doneAt []time.Duration
	for i := range 1000 {
		doneAt = append(doneAt, time.Duration(i+1)*time.Millisecond)
	}
	for i := range 1000 {
		doneAt = append(doneAt, time.Second+time.Duration(i+1)*4*time.Millisecond)
	}
	if got := windowRate(doneAt); got < 624 || got > 626 {
		t.Errorf("windowRate = %v, want the median of 1000/s and 250/s", got)
	}
	if windowCount(999) != 1 || windowCount(4500) != 4 || windowCount(50_000) != maxWindows {
		t.Error("windowCount does not keep 1,000 samples per window")
	}
}

func TestWindowedReportsTheMedianWindow(t *testing.T) {
	// Three windows of 1000; the middle one stalls. The median window's
	// figures are reported, and the count is the total.
	var samples []time.Duration
	for w, base := range []time.Duration{time.Millisecond, time.Second, 2 * time.Millisecond} {
		for i := range 1000 {
			samples = append(samples, base+time.Duration(i+w)*time.Microsecond)
		}
	}
	got, wins := windowed(samples)
	if got.N != 3000 || len(wins) != 3 || wins[1].N != 1000 {
		t.Errorf("N = %d over %d windows, want 3000 over 3", got.N, len(wins))
	}
	if got.P99 >= time.Second || got.P99 < 2*time.Millisecond {
		t.Errorf("P99 = %v, want the third window's p99", got.P99)
	}
}

// TestDueTimeLatencyChargesStalls stalls the server for its first 150 ms:
// every request due during the stall must be charged the rest of it,
// although the open loop sent each one on time.
func TestDueTimeLatencyChargesStalls(t *testing.T) {
	const stall = 150 * time.Millisecond
	gate := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	in := &svcInputs{Bodies: [][]byte{[]byte("{}")}, Keys: []svcKey{{Endpoint: "backlog"}}}
	for i := range 20 {
		in.Requests = append(in.Requests, svcRequest{Due: time.Duration(i) * 10 * time.Millisecond})
	}
	timer := time.AfterFunc(stall, func() { close(gate) })
	defer timer.Stop()
	client, transport := newClient()
	defer transport.CloseIdleConnections()
	out := make([]outcome, len(in.Requests))
	openLoop(client, srv.URL, in, out)
	lat := dueLatencies(in, out)
	for i, rq := range in.Requests {
		if out[i].err || out[i].status != http.StatusOK {
			t.Fatalf("request %d failed: %+v", i, out[i])
		}
		if late := out[i].sent - rq.Due; late > 20*time.Millisecond {
			t.Errorf("request %d sent %v after it was due", i, late)
		}
		if rq.Due < stall && lat[i] < stall-rq.Due-5*time.Millisecond {
			t.Errorf("request %d due at %v: latency %v does not include the stall", i, rq.Due, lat[i])
		}
		if lat[i] < out[i].done-out[i].sent {
			t.Errorf("request %d: latency from due %v is below latency from send %v", i, lat[i], out[i].done-out[i].sent)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	enc := func(seed uint64) []byte {
		in, err := genService(seed, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(enc(7), enc(7)) {
		t.Error("service-queries: one seed gave two request streams")
	}
	if bytes.Equal(enc(7), enc(8)) {
		t.Error("service-queries: two seeds gave one request stream")
	}

	grid := func(seed uint64) string {
		in := genBounds(seed)
		var b bytes.Buffer
		for _, c := range in.cells() {
			fmt.Fprintln(&b, in.loads[c.base%bLoads], c.rate)
		}
		return b.String()
	}
	if grid(7) != grid(7) || grid(7) == grid(8) {
		t.Error("bounds-grid: the grid is not a function of the seed alone")
	}

	ops := func(seed uint64) string {
		var b bytes.Buffer
		for _, p := range vOps(seed, 100) {
			json.NewEncoder(&b).Encode([]any{p.Family.Key, p.Rate, p.ExtraRTs, p.Approach, p.Seed})
		}
		return b.String()
	}
	if ops(7) != ops(7) || ops(7) == ops(8) {
		t.Error("validation-sweep: the cell runs are not a function of the seed alone")
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a.x", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "a.y", Start: 20 * ms, End: 50 * ms, Parent: 0}, // overlaps a.x: counted once
		{Name: "b.x", Start: 60 * ms, End: 70 * ms, Parent: 0},
		{Name: "b.y", Start: 90 * ms, End: 120 * ms, Parent: 0}, // clipped to the parent
		{Name: "c.z", Start: 25 * ms, End: 28 * ms, Parent: 2},  // grandchild
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 20 * ms, 27 * ms, 10 * ms, 30 * ms, 3 * ms}
	if !slices.Equal(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	ts := summarizeTrace(spans)
	capacity, layers := ts.attribution("op", 1)
	if capacity != 100*ms || layers["a"] != 47*ms || layers["b"] != 40*ms || layers["c"] != 3*ms {
		t.Errorf("attribution = %v, %v", capacity, layers)
	}
}

func TestAttributionCountsPoolLanes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "sweep.pool", Start: 0, End: 100 * ms, Parent: 0},
		{Name: "sweep.job", Start: 0, End: 100 * ms, Parent: 1},
		{Name: "sweep.job", Start: 0, End: 50 * ms, Parent: 1},
	}
	capacity, layers := summarizeTrace(spans).attribution("op", 2)
	if capacity != 200*ms || layers["sweep"] != 150*ms {
		t.Errorf("attribution = %v, %v; want 200ms of two lanes, 150ms busy", capacity, layers)
	}
}

func TestMetricNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(manifest.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end = %v, the benchmark reports %v", got, endToEnd)
	}
	if got := names(manifest.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer = %v, the benchmark reports %v", got, perLayer)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if got := names(manifest.Workloads); !slices.Equal(got, ours) {
		t.Errorf("workloads = %v, the benchmark runs %v", got, ours)
	}
}
