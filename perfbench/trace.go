package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's epoch; parent indexes the enclosing span (-1 for a root); op
// identifies the benchmark operation (request or cell) the span serves.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so one code path serves the traced and the untraced replay.
// Safe for concurrent use by the sweep workers.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// snapshot returns the recorded spans; call it once the workers are done.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, children[i], spans)
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []int, spans []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf names the layer a span belongs to: the prefix of its name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Count int
	Total time.Duration // Σ duration
	Self  time.Duration // Σ self time
}

func (s spanStats) meanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return us(s.Total) / float64(s.Count)
}

func (s spanStats) meanSelfUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return us(s.Self) / float64(s.Count)
}

// traceSummary is the aggregate of a finished traced run.
type traceSummary struct {
	spans  []span
	self   []time.Duration
	byName map[string]spanStats
}

func summarizeTrace(spans []span) traceSummary {
	s := traceSummary{spans: spans, self: selfTimes(spans), byName: map[string]spanStats{}}
	for i, sp := range spans {
		st := s.byName[sp.Name]
		st.Count++
		st.Total += sp.End - sp.Start
		st.Self += s.self[i]
		s.byName[sp.Name] = st
	}
	return s
}

// attribution splits the time inside the op roots (spans named root) into
// the self time of each layer beneath them and the rest, which no layer
// claims: harness code between the calls, and idle pool workers. A
// sweep.pool span inside a root runs workers lanes at once, so it adds
// workers-1 lanes of its duration to the time available.
func (s traceSummary) attribution(root string, workers int) (capacity time.Duration, layers map[string]time.Duration) {
	layers = map[string]time.Duration{}
	inRoot := make([]bool, len(s.spans))
	for i, sp := range s.spans {
		if sp.Name == root {
			capacity += sp.End - sp.Start
			inRoot[i] = true
			continue
		}
		if sp.Parent >= 0 && inRoot[sp.Parent] {
			inRoot[i] = true
			layers[layerOf(sp.Name)] += s.self[i]
			if sp.Name == "sweep.pool" {
				capacity += time.Duration(workers-1) * (sp.End - sp.Start)
			}
		}
	}
	return capacity, layers
}

// writeSpans writes the raw spans as JSON lines under dir, so a run's
// trace can be inspected after the process has ended.
func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanDuration is the duration of a closed span.
func spanDuration(tr *tracer, id int) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans[id].End - tr.spans[id].Start
}

// lastSpan is the duration of the most recent span of the given name and op.
func lastSpan(tr *tracer, name string, op int) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := len(tr.spans) - 1; i >= 0; i-- {
		if s := tr.spans[i]; s.Name == name && s.Op == op {
			return s.End - s.Start
		}
	}
	return 0
}

// busyRatio is the share of the pool's worker time spent inside jobs.
func busyRatio(ts traceSummary, workers int) float64 {
	pool := ts.byName["sweep.pool"]
	if pool.Total == 0 {
		return 0
	}
	return float64(ts.byName["sweep.job"].Total) / (float64(workers) * float64(pool.Total))
}

// overhead reports the tracing cost and how much of the traced ops' time
// no layer span claims, and names what fills that gap: harness code
// between the calls, idle pool lanes, and the garbage collector, whose
// CPU share over the replay is printed beside it. gap names what the
// replay leaves out by construction.
func overhead(r *report, ts traceSummary, root string, workers int, untraced time.Duration, untracedOps int, replay procDelta, gap string) {
	capacity, layers := ts.attribution(root, workers)
	roots := ts.byName[root]
	ratio := 0.0
	if untraced > 0 && roots.Count > 0 {
		ratio = (float64(roots.Total) / float64(roots.Count)) / (float64(untraced) / float64(untracedOps))
	}
	r.set("trace.overhead_ratio", ratio, "ratio", "mean traced op / mean untraced op")
	var claimed time.Duration
	var parts []string
	for _, l := range slices.Sorted(maps.Keys(layers)) {
		claimed += layers[l]
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*float64(layers[l])/float64(max(capacity, 1))))
	}
	unattributed := 0.0
	if capacity > 0 {
		unattributed = float64(capacity-claimed) / float64(capacity)
	}
	r.set("trace.unattributed_ratio", unattributed, "ratio", "share of traced op time (× busy pool lanes) outside every layer span")
	fmt.Fprintf(r.out, "  self time by layer inside traced ops: %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(r.out, "  the unattributed share is harness code between calls and idle pool lanes; GC used %.1f%% of the CPU during the replay, inside and between spans; %s\n",
		100*float64(replay.gcCPU)/float64(max(replay.cpu, 1)), gap)
}
