package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder lists the percentiles the tail rule may report, highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// beyond returns how many of n samples lie strictly above the p-th
// percentile under the nearest-rank definition used by quantile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps float rounding (99.9 × 10000 / 100 = 9990.000…02)
// from moving an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentile is the percentile rule every timing follows: the highest
// percentile of the ladder with at least ten samples beyond it. It
// returns 0 when even the median has fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank p-th percentile of sorted samples.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// timing is a latency distribution reported by the percentile rule.
type timing struct {
	N       int
	P50     time.Duration
	Tail    time.Duration
	TailPct float64
	P99     time.Duration
}

// summarize sorts samples in place and reports the median, the p99 and
// the rule's tail percentile with the sample count.
func summarize(samples []time.Duration) timing {
	slices.Sort(samples)
	t := timing{N: len(samples), TailPct: tailPercentile(len(samples))}
	t.P50 = quantile(samples, 50)
	t.P99 = quantile(samples, 99)
	if t.TailPct > 0 {
		t.Tail = quantile(samples, t.TailPct)
	}
	return t
}

// medianDur returns the median of a few durations (e.g. repeated set-ups).
func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// maxWindows bounds how many consecutive windows a run's operations are
// split into; see windowed.
const maxWindows = 5

// windowCount is how many windows n operations fill while each keeps the
// 1,000 samples its p99 needs to have ten beyond it.
func windowCount(n int) int { return max(1, min(maxWindows, n/1000)) }

// windowed splits samples, in the order they were taken, into
// windowCount equal windows, summarizes each by the percentile rule, and
// reports the median of the windows' medians and of their p99s, so that
// a burst of host noise that covers less than half the run moves no
// reported figure. N is the total; the per-window summaries are returned
// too.
func windowed(samples []time.Duration) (timing, []timing) {
	k := windowCount(len(samples))
	var p50s, p99s, tails []time.Duration
	t := timing{N: len(samples)}
	size := len(samples) / k
	wins := make([]timing, k)
	for w := range wins {
		wins[w] = summarize(slices.Clone(samples[w*size : (w+1)*size]))
		p50s, p99s, tails = append(p50s, wins[w].P50), append(p99s, wins[w].P99), append(tails, wins[w].Tail)
		t.TailPct = wins[w].TailPct
	}
	t.P50, t.P99, t.Tail = medianDur(p50s), medianDur(p99s), medianDur(tails)
	return t, wins
}

// windowRate is the median over the same windows of operations completed
// per second; doneAt holds each operation's completion time from the
// start of the measured phase, ascending.
func windowRate(doneAt []time.Duration) float64 {
	k := windowCount(len(doneAt))
	size := len(doneAt) / k
	rates := make([]float64, k)
	for w := range rates {
		var from time.Duration
		if w > 0 {
			from = doneAt[w*size-1]
		}
		rates[w] = float64(size) / (doneAt[(w+1)*size-1] - from).Seconds()
	}
	slices.Sort(rates)
	if k%2 == 1 {
		return rates[k/2]
	}
	return (rates[k/2-1] + rates[k/2]) / 2
}
