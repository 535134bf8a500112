// Package rng builds math/rand generators whose streams equal math/rand's
// own, bit for bit, at a fraction of the seeding cost.
//
// rand.NewSource(seed) fills a 607-word additive lagged-Fibonacci register
// from a Lehmer generator, x ← 48271·x mod (2³¹−1), run 1,841 steps from the
// seed in one dependent chain. Register word i is three consecutive Lehmer
// outputs, shifted and XORed together and with a constant rngCooked[i]. The
// k-th output is seed·48271^k mod (2³¹−1), so New computes every word
// directly from a table of powers: 1,821 independent products the CPU
// overlaps, instead of a serial chain. The register is filled eagerly, since
// every arrival process draws from it at once.
//
// rngCooked is not copied from math/rand. init recovers it from the first
// 607 outputs of rand.NewSource(1): each output is the sum of two register
// words, so the initial register follows from the outputs by subtraction,
// and XORing away seed 1's Lehmer terms leaves the constants.
package rng

import "math/rand"

const (
	length = 607       // register words (math/rand's rngLen)
	tap    = 273       // lag of the tap word (rngTap)
	mod    = 1<<31 - 1 // Lehmer modulus
	mult   = 48271     // Lehmer multiplier
	warmup = 20        // Lehmer steps discarded before the first word
	// zeroSeed replaces a seed that is 0 modulo mod, as math/rand does.
	zeroSeed = 89482311
)

var (
	// pow[i] holds 48271^k mod (2³¹−1) for the three Lehmer outputs k that
	// make register word i, k = warmup+1+3i, +1 and +2: the multipliers that
	// take a seed to those outputs.
	pow [length][3]uint64
	// cooked is math/rand's rngCooked.
	cooked [length]int64
)

func init() {
	p := uint64(1)
	for k := 0; k <= warmup; k++ {
		p = mulmod(p, mult)
	}
	for i := range pow {
		for j := range pow[i] {
			pow[i][j] = p
			p = mulmod(p, mult)
		}
	}

	src := rand.NewSource(1).(rand.Source64)
	var out [length]int64
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	// Draw j (counting from 0) adds the tap word to feed word
	// (length-tap-1-j) mod length and returns the sum. The tap word is the
	// initial word length-1-j while j < tap, and draw j-tap's output after
	// that. Walking the draws backwards recovers the words the early draws
	// tap before they are needed.
	var v [length]int64
	for j := length - 1; j >= 0; j-- {
		t := out[max(j-tap, 0)]
		if j < tap {
			t = v[length-1-j]
		}
		v[(2*length-tap-1-j)%length] = out[j] - t
	}
	// With cooked still zero, seeding leaves seed 1's Lehmer terms alone.
	var one source
	one.Seed(1)
	for i := range cooked {
		cooked[i] = v[i] ^ one.vec[i]
	}
}

// mulmod returns x·y mod (2³¹−1) for x and y in [1, 2³¹−2]. Since 2³¹ ≡ 1,
// folding the product's bits above 31 onto the low ones keeps its residue;
// two folds bring it into [0, 2³¹−1], and the residue of two nonzero factors
// modulo a prime is neither 0 nor the modulus.
func mulmod(x, y uint64) uint64 {
	p := x * y
	p = p&mod + p>>31
	return p&mod + p>>31
}

// source is math/rand's rngSource with closed-form seeding. It implements
// rand.Source64, so rand.Rand's Uint64 draws from it the way it draws from
// the stdlib source.
type source struct {
	tap, feed int
	vec       [length]int64
}

// New returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	return rand.New(newSource(seed))
}

// newSource returns a source seeded with seed. It stays out of line so that
// New fits the inlining budget: a caller whose generator does not escape
// then keeps the rand.Rand on its stack, as with rand.New(rand.NewSource(seed)),
// and allocates no more than before.
//
//go:noinline
func newSource(seed int64) rand.Source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - tap
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &pow[i]
		s.vec[i] = int64(mulmod(x, p[0])<<40^mulmod(x, p[1])<<20^mulmod(x, p[2])) ^ cooked[i]
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
