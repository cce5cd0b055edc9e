// Package rng provides deterministic, splittable pseudo-random streams for
// stochastic-scheduling simulations.
//
// Every simulation in this repository draws its randomness from an explicit
// *Stream; there is no package-level generator. Streams are cheap to create
// and may be split so that parallel replications, job classes, or bandit arms
// each consume an independent substream, which keeps experiments reproducible
// regardless of execution order.
//
// The generator is PCG-XSL-RR 128/64 (O'Neill, 2014) implemented on two
// uint64 words; it passes the statistical batteries relevant at the scale of
// these simulations and is significantly cheaper than crypto-grade sources.
// Each step is one 64×64→128 multiply (math/bits.Mul64, a single
// instruction on amd64 and arm64) plus two 64-bit cross products, and the
// output is one xor and one rotation. The bits every draw returns are
// pinned by known-answer tests: each simulation golden depends on them.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number generator. The zero value is
// not valid; obtain streams from New or Stream.Split.
type Stream struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64 // stream selector (odd increment), high word
	incLo  uint64 // stream selector, low word

	// mirror flips every Float64 draw to its antithetic complement
	// (u → 1−u); Split and SplitInto propagate it to children, so a
	// mirrored replication substream mirrors all the uniforms it feeds
	// to inverse-CDF samplers. Integer draws (Uint64, Intn, Shuffle) are
	// deliberately left unmirrored: they index discrete choices with no
	// monotone coupling to exploit.
	mirror bool

	// paired puts the stream in antithetic split mode (see Antithetic):
	// substreams come off in (fresh, mirrored-twin) pairs. Rather than
	// stashing the even split's derivation (which would bloat every
	// Stream the engine slabs per replication), the odd split rewinds
	// the LCG three steps and replays the same draws — so the pairing is
	// a function of the split index alone and chunked block splitting
	// (SplitInto) crosses pair boundaries invisibly. parity tracks which
	// half of the current pair comes next; both flags live in the struct
	// padding, keeping Stream the same size as without antithetic mode.
	paired bool
	parity bool
}

// Antithetic puts s into antithetic split mode: subsequent Split/SplitInto
// calls produce substreams in pairs, where substream 2k is derived exactly
// as a fresh split and substream 2k+1 is its mirrored twin (same state,
// every Float64 complemented). For samplers that are monotone in their
// uniforms — inverse-CDF laws such as Exponential, Uniform, Weibull — the
// twin's observations are negatively correlated with its partner's, so the
// pair's average has lower variance than two independent replications.
// The mode only changes how substreams are derived; determinism is
// untouched (substream i remains a function of (s, i) only).
func (s *Stream) Antithetic() { s.paired = true }

// multiplier for the 128-bit LCG (PCG reference constant), and its
// multiplicative inverse mod 2^128 (the multiplier is odd, so the inverse
// exists; mul*inv ≡ 1). The inverse lets unstep run the LCG backwards.
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	invHi = 566787436162029664
	invLo = 11001107174925446285
)

// step advances the 128-bit LCG state.
func (s *Stream) step() {
	// state = state*mul + inc (128-bit arithmetic)
	h, l := bits.Mul64(s.lo, mulLo)
	h += s.hi*mulLo + s.lo*mulHi
	var carry uint64
	s.lo, carry = bits.Add64(l, s.incLo, 0)
	s.hi = h + s.incHi + carry
}

// unstep runs the LCG one step backwards: state = (state − inc) * mul⁻¹
// (mod 2^128). Antithetic splitting uses it to revisit the three draws the
// even twin consumed instead of stashing them in every Stream.
func (s *Stream) unstep() {
	lo, borrow := bits.Sub64(s.lo, s.incLo, 0)
	hi := s.hi - s.incHi - borrow
	h, l := bits.Mul64(lo, invLo)
	h += hi*invLo + lo*invHi
	s.lo = l
	s.hi = h
}

// New returns a Stream seeded from seed. Streams created with distinct seeds
// produce independent-looking sequences; the same seed always reproduces the
// same sequence.
func New(seed uint64) *Stream {
	return newWithInc(seed, 0x14057b7ef767814f, seed^0x9e3779b97f4a7c15)
}

func newWithInc(seed, incHi, incLo uint64) *Stream {
	s := new(Stream)
	s.reset(seed, incHi, incLo)
	return s
}

// reset reinitializes s in place from a seed and stream selector — the
// newWithInc construction on caller-owned storage, shared by Split and
// SplitInto so the two derivations can never diverge.
func (s *Stream) reset(seed, incHi, incLo uint64) {
	*s = Stream{incHi: incHi, incLo: incLo<<1 | 1}
	s.lo = seed + 0x853c49e6748fea9b
	s.step()
	s.hi += seed
	s.step()
}

// Split returns a new Stream whose future output is independent of the
// receiver's, while deterministically derived from its current state. The
// receiver remains usable. Splitting is the supported way to hand substreams
// to replications or components.
func (s *Stream) Split() *Stream {
	child := new(Stream)
	s.splitChild(child)
	return child
}

// SplitInto splits len(dst) consecutive substreams off s in index order into
// caller-owned storage: dst[i] receives exactly the stream the (i+1)-th
// Split call would have returned, and s advances by the same three Uint64
// draws per substream. Block splitting lets a replication engine amortize
// one allocation over a whole block of substreams without changing a single
// bit of any stream produced — the block boundary is invisible to the
// derivation.
func (s *Stream) SplitInto(dst []Stream) {
	for i := range dst {
		s.splitChild(&dst[i])
	}
}

// splitChild derives the next substream into dst: the single derivation
// Split and SplitInto share. In antithetic mode the odd-indexed split
// rewinds the parent three steps and replays exactly the draws the even
// twin consumed, flipping the mirror flag — so substream pairs (2k, 2k+1)
// are twins whatever the block boundaries, the parent's net state advance
// per pair is still three steps, and no per-Stream stash is needed.
func (s *Stream) splitChild(dst *Stream) {
	mirror := s.mirror
	if s.paired {
		if s.parity {
			s.parity = false
			s.unstep()
			s.unstep()
			s.unstep()
			mirror = !mirror
		} else {
			s.parity = true
		}
	}
	a := s.Uint64()
	b := s.Uint64()
	c := s.Uint64()
	dst.reset(a, b, c)
	dst.mirror = mirror
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.step()
	// XSL-RR output function: xor-fold the 128-bit state, then rotate by the
	// top 6 bits.
	return bits.RotateLeft64(s.hi^s.lo, -int(s.hi>>58))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	v := s.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision —
// or, on a mirrored stream, the antithetic complement 1−u in (0, 1].
func (s *Stream) Float64() float64 {
	u := float64(s.Uint64()>>11) * (1.0 / (1 << 53))
	if s.mirror {
		return 1 - u
	}
	return u
}

// Float64Open returns a uniform float64 in the open interval (0, 1),
// convenient for inverse-CDF sampling where log(0) must be avoided.
func (s *Stream) Float64Open() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return u
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with rate <= 0")
	}
	return expOf(s.Float64Open(), rate)
}

// ExpFill fills out with the values len(out) successive Exp(rate) calls
// would return, bit for bit. It draws every uniform first and then takes
// the logarithms, which do not depend on one another, so the CPU can
// overlap them instead of waiting on each in turn. It panics if rate <= 0.
func (s *Stream) ExpFill(rate float64, out []float64) {
	if rate <= 0 {
		panic("rng: Exp with rate <= 0")
	}
	for i := range out {
		out[i] = s.Float64Open()
	}
	for i, u := range out {
		out[i] = expOf(u, rate)
	}
}

// expOf is the exponential inverse CDF at the open uniform u.
func expOf(u, rate float64) float64 { return -math.Log(u) / rate }

// Perm returns a uniformly random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Categorical returns an index drawn according to the (unnormalized,
// nonnegative) weights. It panics if all weights are zero or any is negative.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if !(w >= 0) { // negative or NaN
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
