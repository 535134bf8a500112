// Package rng builds math/rand generators whose streams equal math/rand's
// own, bit for bit, at a fraction of the seeding cost.
//
// rand.NewSource(seed) fills a 607-word additive lagged-Fibonacci register
// from a Lehmer generator, x ← 48271·x mod (2³¹−1), run 1,841 steps from the
// seed in one dependent chain. Register word i is three consecutive Lehmer
// outputs, shifted and XORed together and with a constant rngCooked[i]. The
// k-th output is seed·48271^k mod (2³¹−1), so rng computes any word directly
// from a table of powers: three independent products the CPU overlaps,
// instead of a serial chain.
//
// Most streams draw a few words, so a stream starts without a register.
// Draw j adds tap word 606−j to feed word 333−j and writes the sum to the
// feed word; before draw 273 neither word has been written, so a lazy draw
// computes both from the seed. At draw 32 the stream materializes the
// register: all 607 words, then the feed writes of the draws taken so far.
// A stream that stays lazy is one small allocation, since the rand.Rand that
// New returns lives inside it. A re-seed restarts the stream lazy, as New
// does, but keeps a register it already has: the next draw 32 fills that
// one in place instead of allocating another, so a stream re-seeded run
// after run allocates nothing, and does the same work as a new one.
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
	// window is the number of draws a stream takes before it materializes
	// its register. It must not exceed tap: lazy's identity ends there.
	window = 32
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
	// With cooked still zero, a register filled from seed 1 holds seed 1's
	// Lehmer terms alone.
	one := source{x: 1, feed: length - tap}
	one.fill()
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

// source is math/rand's rngSource with closed-form seeding and a register
// that is live only once the stream has drawn more than window words since
// its last seeding. It keeps rngSource's feed index at every draw;
// rngSource's tap index always equals feed+tap modulo length, since both
// start that far apart and step together. It implements rand.Source64 and
// embeds the rand.Rand that New returns, so a stream that stays lazy is one
// small allocation.
type source struct {
	r    rand.Rand
	x    uint64 // normalized seed, in [1, 2³¹−2]
	feed int
	vec  *[length]int64 // the live register; nil while the stream is lazy
	reg  *[length]int64 // the register's storage once allocated, kept across re-seeds
}

// New returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	s.r = *rand.New(s)
	return &s.r
}

// Seed implements rand.Source. The stream restarts lazy; a register it
// already has stays allocated for its next fill.
func (s *source) Seed(seed int64) {
	s.feed = length - tap
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x = uint64(seed)
	s.vec = nil
}

// fill materializes the register, in the storage a previous seeding left
// if there is one: every initial word, then the writes of the draws taken
// so far, each of which added word i+tap to word i.
func (s *source) fill() {
	if s.reg == nil {
		s.reg = new([length]int64)
	}
	s.vec = s.reg
	v, x := s.vec, s.x
	for i := range v {
		p := &pow[i]
		v[i] = int64(mulmod(x, p[0])<<40^mulmod(x, p[1])<<20^mulmod(x, p[2])) ^ cooked[i]
	}
	for i := s.feed; i < length-tap; i++ {
		v[i] += v[i+tap]
	}
}

// lazy takes a draw while the register does not exist. Before draw tap,
// draw j adds initial words length−tap−1−j and length−1−j, which no earlier
// draw wrote, so both come from the seed: 6 products against the fill's
// 1,821, written out as in fill, since a call per word would cost more than
// its products. At draw window the stream materializes the register
// instead.
func (s *source) lazy() uint64 {
	if s.feed == length-tap-window {
		s.fill()
		return s.step(s.vec)
	}
	s.feed--
	i, j := s.feed, s.feed+tap
	x, f, t := s.x, &pow[i], &pow[j]
	a := int64(mulmod(x, f[0])<<40^mulmod(x, f[1])<<20^mulmod(x, f[2])) ^ cooked[i]
	b := int64(mulmod(x, t[0])<<40^mulmod(x, t[1])<<20^mulmod(x, t[2])) ^ cooked[j]
	return uint64(a + b)
}

// step is rngSource's register step on the stream's register v: it adds
// the tap word to the feed word, with both indices in registers and the
// feed index stored once.
func (s *source) step(v *[length]int64) uint64 {
	feed := s.feed - 1
	if feed < 0 {
		feed += length
	}
	t := feed + tap
	if t >= length {
		t -= length
	}
	s.feed = feed
	x := v[feed] + v[t]
	v[feed] = x
	return uint64(x)
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if v := s.vec; v != nil {
		return s.step(v)
	}
	return s.lazy()
}

// Int63 implements rand.Source. It repeats Uint64's body so that the step
// is inlined here too.
func (s *source) Int63() int64 {
	if v := s.vec; v != nil {
		return int64(s.step(v) &^ (1 << 63))
	}
	return int64(s.lazy() &^ (1 << 63))
}

// SplitMix64 is the SplitMix64 finalizer: a bijective mix of x whose output
// bits each depend on every input bit, which decorrelates seeds derived from
// one base seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
