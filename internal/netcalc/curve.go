// Package netcalc implements the deterministic network calculus of Cruz
// [1, 2] and Le Boudec & Thiran, which is the mathematical machinery the
// reproduced paper uses to bound end-to-end delays on switched Ethernet.
//
// Functions of interest — arrival curves α(t) (how much traffic a flow may
// send in any window of length t) and service curves β(t) (how much service
// a node guarantees in any backlogged window of length t) — are represented
// as piecewise-linear (PWL) functions on [0, ∞). Arrival curves are concave
// (token buckets and their minima), service curves convex (rate–latency and
// strict-priority residual services). All the bounds the paper states are
// computed exactly on this representation:
//
//   - delay bound    = horizontal deviation  h(α, β)
//   - backlog bound  = vertical deviation    v(α, β)
//   - output bound   = deconvolution         α ⊘ β
//   - tandem service = min-plus convolution  β₁ ⊗ β₂
//
// Units: time is in seconds, data in bits, rates in bits per second, all as
// float64. Conversions to the integer virtual-time world of the simulators
// round conservatively (bounds are rounded up).
//
// Convention at t = 0: network calculus defines α(0) = β(0) = 0, with the
// burst appearing as the right-limit α(0+) = b. This package stores the
// right-limit in the first segment, so Eval(0) returns the burst. Every
// operation below is written against right-limits, which yields the exact
// textbook results for left-continuous curves while keeping the
// representation simple.
//
// [1] R. Cruz, "A calculus for network delay, part I", IEEE Trans. Inf.
// Theory 37(1), 1991.  [2] part II, same issue.
package netcalc

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Segment is one affine piece of a curve: for x ≥ X (until the next
// segment's X), the curve value is Y + Slope·(x − X).
type Segment struct {
	X     float64 // start abscissa, seconds
	Y     float64 // value at X, bits (right-limit if X is a jump point)
	Slope float64 // bits per second
}

// Curve is a wide-sense increasing piecewise-linear function on [0, ∞).
// The last segment extends to infinity. The zero value is not a valid
// curve; use the constructors.
type Curve struct {
	segs []Segment
}

// eps is the relative tolerance used when comparing float64 curve values.
const eps = 1e-9

func almostEq(a, b float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	return d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// normalize sorts, validates, and merges collinear/duplicate segments.
func normalize(segs []Segment) []Segment {
	if len(segs) == 0 {
		panic("netcalc: curve with no segments")
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].X < segs[j].X })
	if segs[0].X != 0 {
		panic(fmt.Sprintf("netcalc: first segment starts at %g, not 0", segs[0].X))
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if almostEq(s.X, last.X) {
			// Later segment at the same abscissa wins (upper envelope of a
			// jump); keep it only if it actually changes something.
			*last = Segment{X: last.X, Y: s.Y, Slope: s.Slope}
			continue
		}
		// Merge if collinear with the previous segment.
		extrap := last.Y + last.Slope*(s.X-last.X)
		if almostEq(extrap, s.Y) && almostEq(last.Slope, s.Slope) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// FromSegments builds a curve from raw segments. Segments must start at
// X = 0 and be given in any order; collinear pieces are merged. It panics
// on malformed input — curves are built by code, not by untrusted data.
func FromSegments(segs ...Segment) Curve {
	cp := make([]Segment, len(segs))
	copy(cp, segs)
	return Curve{segs: normalize(cp)}
}

// Zero returns the identically-zero curve.
func Zero() Curve { return FromSegments(Segment{0, 0, 0}) }

// Constant returns the constant curve c (for t ≥ 0, right-limit at 0).
func Constant(c float64) Curve { return FromSegments(Segment{0, c, 0}) }

// Affine returns the curve y0 + slope·t (right-limit y0 at 0).
func Affine(y0, slope float64) Curve { return FromSegments(Segment{0, y0, slope}) }

// TokenBucket returns the leaky-bucket arrival curve γ_{r,b}(t) = b + r·t,
// the curve enforced by the paper's per-flow traffic shapers (maximal bucket
// size b bits, token rate r bits/s).
func TokenBucket(b, r float64) Curve {
	if b < 0 || r < 0 {
		panic(fmt.Sprintf("netcalc: negative token bucket (b=%g, r=%g)", b, r))
	}
	return Affine(b, r)
}

// RateLatency returns the service curve β_{R,T}(t) = R·(t − T)⁺, the model
// of an output link of rate R with worst-case technological latency T
// (the paper's t_techno).
func RateLatency(r, t float64) Curve {
	if r < 0 || t < 0 {
		panic(fmt.Sprintf("netcalc: negative rate-latency (R=%g, T=%g)", r, t))
	}
	if t == 0 {
		return Affine(0, r)
	}
	return FromSegments(Segment{0, 0, 0}, Segment{t, 0, r})
}

// Segments returns a copy of the curve's segments.
func (c Curve) Segments() []Segment {
	out := make([]Segment, len(c.segs))
	copy(out, c.segs)
	return out
}

// NumSegments returns the number of affine pieces.
func (c Curve) NumSegments() int { return len(c.segs) }

// Eval returns the curve's value at t ≥ 0 (the right-limit at jump points,
// so Eval(0) of a token bucket is its burst). Negative t panics.
func (c Curve) Eval(t float64) float64 {
	if t < 0 {
		panic(fmt.Sprintf("netcalc: Eval at negative time %g", t))
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > t }) - 1
	s := c.segs[i]
	return s.Y + s.Slope*(t-s.X)
}

// Burst returns the right-limit at 0 — the burst b of an arrival curve.
func (c Curve) Burst() float64 { return c.segs[0].Y }

// LongRunSlope returns the slope of the final (infinite) segment — the
// sustained rate of an arrival curve or service rate of a service curve.
func (c Curve) LongRunSlope() float64 { return c.segs[len(c.segs)-1].Slope }

// LatencyTerm returns the largest t at which the curve is still zero
// (0 if the curve is positive immediately). For a rate–latency curve this
// is T; for a strict-priority residual service it is the worst-case time
// the class can be starved.
func (c Curve) LatencyTerm() float64 {
	if c.segs[0].Y > 0 {
		return 0
	}
	lat := 0.0
	for i, s := range c.segs {
		if s.Y > 0 {
			break
		}
		lat = s.X
		if s.Slope > 0 {
			break
		}
		if i == len(c.segs)-1 {
			return math.Inf(1) // identically zero beyond here
		}
		lat = c.segs[i+1].X
	}
	return lat
}

// IsConcave reports whether slopes are non-increasing and there are no
// upward jumps after 0 (i.e. the function restricted to (0,∞) is concave).
func (c Curve) IsConcave() bool {
	for i := 1; i < len(c.segs); i++ {
		prev, cur := c.segs[i-1], c.segs[i]
		if cur.Slope > prev.Slope+eps {
			return false
		}
		extrap := prev.Y + prev.Slope*(cur.X-prev.X)
		if !almostEq(extrap, cur.Y) {
			return false // jump ⇒ not concave on (0,∞)
		}
	}
	return true
}

// IsConvex reports whether slopes are non-decreasing with no jumps and the
// curve starts at 0 — the shape of every service curve in this model.
func (c Curve) IsConvex() bool {
	if c.segs[0].Y > eps {
		return false
	}
	for i := 1; i < len(c.segs); i++ {
		prev, cur := c.segs[i-1], c.segs[i]
		if cur.Slope < prev.Slope-eps {
			return false
		}
		extrap := prev.Y + prev.Slope*(cur.X-prev.X)
		if !almostEq(extrap, cur.Y) {
			return false
		}
	}
	return true
}

// IsIncreasing reports whether the curve is wide-sense increasing with
// nonnegative values — required of every arrival and service curve.
func (c Curve) IsIncreasing() bool {
	if c.segs[0].Y < -eps {
		return false
	}
	prevEnd := c.segs[0].Y
	for i, s := range c.segs {
		if s.Slope < -eps {
			return false
		}
		if i > 0 && s.Y < prevEnd-eps {
			return false // downward jump
		}
		if i < len(c.segs)-1 {
			prevEnd = s.Y + s.Slope*(c.segs[i+1].X-s.X)
		}
	}
	return true
}

// Equal reports whether two curves are equal up to floating-point
// tolerance, by comparing them at the union of their breakpoints.
func (c Curve) Equal(d Curve) bool {
	for _, x := range mergedBreakpoints(c, d) {
		if !almostEq(c.Eval(x), d.Eval(x)) {
			return false
		}
	}
	return almostEq(c.LongRunSlope(), d.LongRunSlope())
}

// String renders the curve for debugging, e.g.
// "0s:+512b @1Mbps; 140µs:+0b @10Mbps".
func (c Curve) String() string {
	var b strings.Builder
	for i, s := range c.segs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "t≥%gs: %gb + %gbps·Δt", s.X, s.Y, s.Slope)
	}
	return b.String()
}

// mergedBreakpoints returns the sorted union of the curves' breakpoints.
func mergedBreakpoints(cs ...Curve) []float64 {
	var xs []float64
	for _, c := range cs {
		for _, s := range c.segs {
			xs = append(xs, s.X)
		}
	}
	sort.Float64s(xs)
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || !almostEq(out[len(out)-1], x) {
			out = append(out, x)
		}
	}
	return out
}

// pointwise applies op segment-by-segment over the merged breakpoints of a
// and b. op receives the two segment views aligned at the same X.
func pointwise(a, b Curve, op func(x, ya, sa, yb, sb float64) Segment) Curve {
	xs := mergedBreakpoints(a, b)
	segs := make([]Segment, 0, len(xs))
	for _, x := range xs {
		sa, sb := a.slopeAt(x), b.slopeAt(x)
		segs = append(segs, op(x, a.Eval(x), sa, b.Eval(x), sb))
	}
	return Curve{segs: normalize(segs)}
}

// slopeAt returns the slope in effect at and immediately after x.
func (c Curve) slopeAt(x float64) float64 {
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > x }) - 1
	return c.segs[i].Slope
}

// Add returns the pointwise sum a + b (aggregate arrival curve of
// multiplexed flows).
func (c Curve) Add(d Curve) Curve {
	return pointwise(c, d, func(x, ya, sa, yb, sb float64) Segment {
		return Segment{x, ya + yb, sa + sb}
	})
}

// Sub returns the pointwise difference c − d. The caller is responsible for
// the result's meaning (it is used to build strict-priority residual
// services, where convex − concave stays convex before clipping).
func (c Curve) Sub(d Curve) Curve {
	return pointwise(c, d, func(x, ya, sa, yb, sb float64) Segment {
		return Segment{x, ya - yb, sa - sb}
	})
}

// SubConst returns c − k (used for the non-preemption blocking term).
func (c Curve) SubConst(k float64) Curve { return c.Sub(Constant(k)) }

// Scale returns the curve k·c for k ≥ 0.
func (c Curve) Scale(k float64) Curve {
	if k < 0 {
		panic("netcalc: negative scale")
	}
	segs := make([]Segment, len(c.segs))
	for i, s := range c.segs {
		segs[i] = Segment{s.X, k * s.Y, k * s.Slope}
	}
	return Curve{segs: normalize(segs)}
}

// ShiftRight returns c(t − T) for t ≥ T and 0 before — delaying a service
// curve by an extra latency T ≥ 0.
func (c Curve) ShiftRight(T float64) Curve {
	if T < 0 {
		panic("netcalc: negative shift")
	}
	if T == 0 {
		return c
	}
	segs := make([]Segment, 0, len(c.segs)+1)
	segs = append(segs, Segment{0, 0, 0})
	for _, s := range c.segs {
		segs = append(segs, Segment{s.X + T, s.Y, s.Slope})
	}
	return Curve{segs: normalize(segs)}
}

// crossings returns the x > lo where the affine pieces (ya,sa) and (yb,sb)
// anchored at lo cross, if it lies strictly inside (lo, hi).
func crossing(lo, hi, ya, sa, yb, sb float64) (float64, bool) {
	ds := sa - sb
	if ds == 0 {
		return 0, false
	}
	x := lo + (yb-ya)/ds
	if x > lo+eps && (math.IsInf(hi, 1) || x < hi-eps) {
		return x, true
	}
	return 0, false
}

// extremal computes min (sel=+1 keeps the smaller) or max (sel=-1) of two
// curves, inserting breakpoints where the curves cross.
func extremal(a, b Curve, takeMin bool) Curve {
	xs := mergedBreakpoints(a, b)
	var segs []Segment
	for i, x := range xs {
		hi := math.Inf(1)
		if i+1 < len(xs) {
			hi = xs[i+1]
		}
		ya, sa := a.Eval(x), a.slopeAt(x)
		yb, sb := b.Eval(x), b.slopeAt(x)
		pick := func(y1, s1, y2, s2, at float64) Segment {
			if takeMin == (y1 <= y2) {
				return Segment{at, y1, s1}
			}
			return Segment{at, y2, s2}
		}
		// Decide who wins at x; if slopes cross inside the interval, split.
		var first Segment
		if almostEq(ya, yb) {
			// Tie at x: winner is decided by slope.
			if takeMin == (sa <= sb) {
				first = Segment{x, ya, sa}
			} else {
				first = Segment{x, yb, sb}
			}
		} else {
			first = pick(ya, sa, yb, sb, x)
		}
		segs = append(segs, first)
		if cx, ok := crossing(x, hi, ya, sa, yb, sb); ok {
			// After the crossing the other curve wins.
			cy := ya + sa*(cx-x)
			if takeMin == (sa <= sb) {
				segs = append(segs, Segment{cx, cy, sa})
			} else {
				segs = append(segs, Segment{cx, cy, sb})
			}
		}
	}
	return Curve{segs: normalize(segs)}
}

// Min returns the pointwise minimum of the two curves. For concave arrival
// curves this equals their min-plus convolution (see Convolve).
func (c Curve) Min(d Curve) Curve { return extremal(c, d, true) }

// Max returns the pointwise maximum of the two curves.
func (c Curve) Max(d Curve) Curve { return extremal(c, d, false) }

// PlusPart returns max(c, 0) — the (·)⁺ clipping used when subtracting
// interference from a service curve.
func (c Curve) PlusPart() Curve { return c.Max(Zero()) }
