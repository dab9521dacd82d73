package netcalc

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrUnbounded is returned when a requested bound does not exist because
// the long-run arrival rate exceeds the long-run service rate — the
// stability condition Σrᵢ ≤ C of the paper is violated.
var ErrUnbounded = errors.New("netcalc: unstable system, bound is infinite")

// Convolve returns the min-plus convolution f ⊗ g for the two shapes that
// occur in this model:
//
//   - two concave curves (shaping: the output of a greedy shaper σ fed with
//     α-constrained traffic is (α ⊗ σ)-constrained). For concave f, g with
//     f(0) = g(0) = 0 the convolution is simply min(f, g).
//   - two convex service curves (tandem of nodes: a flow crossing β₁ then
//     β₂ is guaranteed β₁ ⊗ β₂). For convex curves through the origin the
//     convolution concatenates the affine pieces of both curves sorted by
//     increasing slope.
//
// Mixed shapes panic: they never arise in the model, and silently guessing
// would produce invalid bounds.
func Convolve(f, g Curve) Curve {
	switch {
	case f.IsConcave() && g.IsConcave():
		return f.Min(g)
	case f.IsConvex() && g.IsConvex():
		return convolveConvex(f, g)
	default:
		panic(fmt.Sprintf("netcalc: Convolve needs two concave or two convex curves (got %v and %v)", f, g))
	}
}

// convolveConvex concatenates the finite affine pieces of both curves in
// ascending slope order, then appends the combined tail.
func convolveConvex(f, g Curve) Curve {
	type piece struct{ dx, slope float64 }
	var pieces []piece
	collect := func(c Curve) {
		for i, s := range c.segs {
			if i+1 < len(c.segs) {
				pieces = append(pieces, piece{c.segs[i+1].X - s.X, s.Slope})
			}
		}
	}
	collect(f)
	collect(g)
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].slope < pieces[j].slope })
	// The infinite tails: the combined tail slope is the smaller of the two
	// (the slower server dominates eventually); the steeper tail contributes
	// nothing extra because it can absorb any residual split.
	tail := math.Min(f.LongRunSlope(), g.LongRunSlope())
	segs := make([]Segment, 0, len(pieces)+1)
	x, y := 0.0, 0.0
	for _, p := range pieces {
		if p.slope >= tail {
			break // pieces at or above the tail slope are dominated by the tail
		}
		segs = append(segs, Segment{x, y, p.slope})
		x += p.dx
		y += p.slope * p.dx
	}
	segs = append(segs, Segment{x, y, tail})
	return Curve{segs: normalize(segs)}
}

// HorizontalDeviation returns h(α, β) = sup_{t≥0} inf{ d ≥ 0 : α(t) ≤ β(t+d) },
// the worst-case delay of α-constrained traffic served with curve β under
// FIFO order within the flow. This is the paper's delay bound D.
//
// α must be concave and β convex (the only shapes the model produces). The
// computation is exact: the deviation d(t) = β⁻¹(α(t)) − t is concave, so
// its supremum is attained at a breakpoint of α or at a point where α
// crosses a breakpoint value of β; all candidates are enumerated.
func HorizontalDeviation(alpha, beta Curve) (float64, error) {
	if !alpha.IsConcave() {
		panic(fmt.Sprintf("netcalc: HorizontalDeviation needs concave α (got %v)", alpha))
	}
	if !beta.IsConvex() {
		panic(fmt.Sprintf("netcalc: HorizontalDeviation needs convex β (got %v)", beta))
	}
	ra, rb := alpha.LongRunSlope(), beta.LongRunSlope()
	if ra > rb+eps {
		return 0, ErrUnbounded
	}
	if rb == 0 && alpha.Eval(0) == 0 && ra == 0 {
		return 0, nil // no traffic at all
	}

	// Candidate t values: 0, α breakpoints, and the t where α reaches each
	// β breakpoint value.
	cands := []float64{0}
	for _, s := range alpha.segs {
		cands = append(cands, s.X)
	}
	for _, s := range beta.segs {
		if t, ok := inverseOn(alpha, s.Y); ok {
			cands = append(cands, t)
		}
	}
	// A sentinel beyond all breakpoints, to detect the behaviour of the
	// deviation on the final affine pieces.
	last := 0.0
	for _, x := range mergedBreakpoints(alpha, beta) {
		if x > last {
			last = x
		}
	}
	sentinel := last + 1
	cands = append(cands, sentinel, sentinel+1)

	best := 0.0
	var prev float64
	var prevSet bool
	for _, t := range cands {
		d, err := delayAt(alpha, beta, t)
		if err != nil {
			return 0, err
		}
		if d > best {
			best = d
		}
		if t == sentinel {
			prev, prevSet = d, true
		}
		if t == sentinel+1 && prevSet && d > prev+eps {
			// Deviation still growing on the final affine pieces — this can
			// only happen when ra == rb and the asymptotes diverge.
			return 0, ErrUnbounded
		}
	}
	return best, nil
}

// delayAt computes inf{ d ≥ 0 : α(t) ≤ β(t+d) } for one t.
func delayAt(alpha, beta Curve, t float64) (float64, error) {
	y := alpha.Eval(t)
	s, ok := inverseOn(beta, y)
	if !ok {
		return 0, ErrUnbounded
	}
	d := s - t
	if d < 0 {
		return 0, nil
	}
	return d, nil
}

// inverseOn returns inf{ s ≥ 0 : c(s) ≥ y } for an increasing curve,
// or ok=false if c never reaches y.
func inverseOn(c Curve, y float64) (float64, bool) {
	if y <= c.segs[0].Y {
		return 0, true
	}
	for i, s := range c.segs {
		endX := math.Inf(1)
		if i+1 < len(c.segs) {
			endX = c.segs[i+1].X
		}
		endY := s.Y
		if !math.IsInf(endX, 1) {
			endY = s.Y + s.Slope*(endX-s.X)
		}
		reachable := (math.IsInf(endX, 1) && s.Slope > 0) || endY >= y
		if y > s.Y && reachable && s.Slope > 0 {
			x := s.X + (y-s.Y)/s.Slope
			if math.IsInf(endX, 1) || x <= endX+eps {
				return x, true
			}
		}
		// A jump up at the next breakpoint may clear y.
		if i+1 < len(c.segs) && c.segs[i+1].Y >= y && endY < y {
			return c.segs[i+1].X, true
		}
	}
	return 0, false
}

// VerticalDeviation returns v(α, β) = sup_{t≥0} (α(t) − β(t)), the worst-case
// backlog of α-constrained traffic in a node with service β — the buffer
// size needed so that "messages can[not] be lost if buffers overflow".
func VerticalDeviation(alpha, beta Curve) (float64, error) {
	ra, rb := alpha.LongRunSlope(), beta.LongRunSlope()
	if ra > rb+eps {
		return 0, ErrUnbounded
	}
	diff := alpha.Sub(beta)
	best := math.Inf(-1)
	for _, x := range mergedBreakpoints(alpha, beta) {
		if v := diff.Eval(x); v > best {
			best = v
		}
	}
	// Check the tail: if the difference still grows on the final pieces the
	// only possibility is ra == rb with diverging offsets — evaluate far out.
	lastX := diff.segs[len(diff.segs)-1].X
	if v := diff.Eval(lastX + 1); v > best+eps {
		return 0, ErrUnbounded
	}
	if best < 0 {
		best = 0
	}
	return best, nil
}

// Deconvolve returns the min-plus deconvolution (α ⊘ β)(t) = sup_{u≥0}
// [α(t+u) − β(u)]: the tightest arrival curve of the *output* of a node with
// service curve β fed by α-constrained traffic. Chaining node analyses
// (source multiplexer → switch output port) uses this as the arrival curve
// at the next hop.
//
// α must be concave, β convex, and the system stable; otherwise
// ErrUnbounded is returned.
func Deconvolve(alpha, beta Curve) (Curve, error) {
	if !alpha.IsConcave() {
		panic(fmt.Sprintf("netcalc: Deconvolve needs concave α (got %v)", alpha))
	}
	if !beta.IsConvex() {
		panic(fmt.Sprintf("netcalc: Deconvolve needs convex β (got %v)", beta))
	}
	if alpha.LongRunSlope() > beta.LongRunSlope()+eps {
		return Curve{}, ErrUnbounded
	}

	// The result is concave with breakpoints among { xa − xb ≥ 0 } for α
	// breakpoints xa and β breakpoints xb. Evaluate the sup exactly at each
	// candidate t; between candidates the optimizer structure is constant so
	// linear interpolation is exact.
	tset := map[float64]bool{0: true}
	for _, sa := range alpha.segs {
		for _, sb := range beta.segs {
			if d := sa.X - sb.X; d > 0 {
				tset[d] = true
			}
		}
	}
	ts := make([]float64, 0, len(tset))
	//rtlint:sorted-after
	for t := range tset {
		ts = append(ts, t)
	}
	sort.Float64s(ts)

	segs := make([]Segment, 0, len(ts))
	for i, t := range ts {
		y := supShiftDiff(alpha, beta, t)
		slope := alpha.LongRunSlope()
		if i+1 < len(ts) {
			next := supShiftDiff(alpha, beta, ts[i+1])
			slope = (next - y) / (ts[i+1] - t)
		}
		segs = append(segs, Segment{t, y, slope})
	}
	return Curve{segs: normalize(segs)}, nil
}

// supShiftDiff computes sup_{u≥0} [α(t+u) − β(u)] exactly. The function is
// concave in u, so the sup is attained at u = 0 or at a breakpoint of β or
// at a u aligning t+u with a breakpoint of α; all are enumerated.
func supShiftDiff(alpha, beta Curve, t float64) float64 {
	cands := []float64{0}
	for _, s := range beta.segs {
		cands = append(cands, s.X)
	}
	for _, s := range alpha.segs {
		if u := s.X - t; u > 0 {
			cands = append(cands, u)
		}
	}
	best := math.Inf(-1)
	for _, u := range cands {
		if v := alpha.Eval(t+u) - beta.Eval(u); v > best {
			best = v
		}
	}
	return best
}

// OutputArrival is Deconvolve under its operational name.
func OutputArrival(alpha, beta Curve) (Curve, error) { return Deconvolve(alpha, beta) }

// ResidualStrictPriority returns the service curve left for priority class p
// at a strict-priority multiplexer with aggregate service β:
//
//	β_p(t) = [ β(t) − α_hp(t) − b_block ]⁺
//
// where α_hp is the aggregate arrival curve of all strictly higher-priority
// classes and b_block is the maximum frame size of lower-priority classes
// (non-preemption: one lower-priority frame already on the wire must finish;
// the paper's max_{j∈⋃_{q>p}S_q} b_j term).
//
// β must be convex and α_hp concave, so the result is convex.
func ResidualStrictPriority(beta, higher Curve, blockBits float64) Curve {
	if !beta.IsConvex() {
		panic(fmt.Sprintf("netcalc: residual needs convex β (got %v)", beta))
	}
	if !higher.IsConcave() && !higher.Equal(Zero()) {
		panic(fmt.Sprintf("netcalc: residual needs concave interference (got %v)", higher))
	}
	if blockBits < 0 {
		panic("netcalc: negative blocking term")
	}
	return beta.Sub(higher).SubConst(blockBits).PlusPart()
}

// AggregateArrival sums a set of arrival curves (flows multiplexed FCFS
// share one queue, so their curves add).
func AggregateArrival(curves ...Curve) Curve {
	agg := Zero()
	for _, c := range curves {
		agg = agg.Add(c)
	}
	return agg
}
