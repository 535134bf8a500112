package rng

import (
	"bufio"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// edgeSeeds returns the edges of math/rand's seed normalization: zero,
// negatives, multiples of 2³¹−1, the int64 extremes and the zero-seed
// replacement.
func edgeSeeds() []int64 {
	return []int64{
		0, 1, 2, -1, -2, 42, -42,
		mod, -mod, 2 * mod, -2 * mod, 1000 * mod, mod - 1, mod + 1, -mod + 1, -mod - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		zeroSeed, -zeroSeed, 1 << 31, 1 << 32, 1 << 62, -(1 << 62),
	}
}

// lockstepSeeds returns the seeds the lockstep test covers: the edge seeds
// plus pseudo-random seeds spread over the whole int64 range.
func lockstepSeeds() []int64 {
	seeds := edgeSeeds()
	gen := rand.New(rand.NewSource(20080617))
	for len(seeds) < 420 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestLockstepWithMathRand draws from New(seed) and from
// rand.New(rand.NewSource(seed)) side by side, interleaving every Rand method
// the program calls, and requires every draw to be equal. Halfway through,
// both generators are re-seeded through Rand.Seed.
func TestLockstepWithMathRand(t *testing.T) {
	const draws = 3000
	for _, seed := range lockstepSeeds() {
		want, got := rand.New(rand.NewSource(seed)), New(seed)
		wantZipf, gotZipf := rand.NewZipf(want, 1.5, 1, 32), rand.NewZipf(got, 1.5, 1, 32)
		wantDeck, gotDeck := make([]int, 9), make([]int, 9)
		for i := 0; i < draws; i++ {
			if i == draws/2 {
				want.Seed(seed ^ 0x5eed)
				got.Seed(seed ^ 0x5eed)
			}
			var w, g any
			switch op := i % 10; op {
			case 0:
				w, g = want.Intn(1000), got.Intn(1000)
			case 1:
				w, g = want.Int63n(1<<40+7), got.Int63n(1<<40+7)
			case 2:
				w, g = want.Float64(), got.Float64()
			case 3:
				w, g = want.ExpFloat64(), got.ExpFloat64()
			case 4:
				w, g = want.NormFloat64(), got.NormFloat64()
			case 5:
				w, g = want.Perm(7), got.Perm(7)
			case 6:
				for k := range wantDeck {
					wantDeck[k], gotDeck[k] = k, k
				}
				want.Shuffle(len(wantDeck), func(a, b int) { wantDeck[a], wantDeck[b] = wantDeck[b], wantDeck[a] })
				got.Shuffle(len(gotDeck), func(a, b int) { gotDeck[a], gotDeck[b] = gotDeck[b], gotDeck[a] })
				w, g = wantDeck, gotDeck
			case 7:
				w, g = want.Uint64(), got.Uint64()
			case 8:
				w, g = want.Int63(), got.Int63()
			case 9:
				w, g = wantZipf.Uint64(), gotZipf.Uint64()
			}
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("seed %d, draw %d (method %d): math/rand gives %v, rng gives %v", seed, i, i%10, w, g)
			}
		}
	}
}

// pair is a math/rand generator and an rng one seeded alike, with the Zipf
// generators and decks that the method mix draws through.
type pair struct {
	want, got         *rand.Rand
	wantZipf, gotZipf *rand.Zipf
	wantDeck, gotDeck []int
}

func newPair(seed int64) *pair {
	p := &pair{want: rand.New(rand.NewSource(seed)), got: New(seed)}
	p.wantZipf, p.gotZipf = rand.NewZipf(p.want, 1.5, 1, 32), rand.NewZipf(p.got, 1.5, 1, 32)
	p.wantDeck, p.gotDeck = make([]int, 9), make([]int, 9)
	return p
}

// reseed re-seeds both generators through Rand.Seed.
func (p *pair) reseed(seed int64) {
	p.want.Seed(seed)
	p.got.Seed(seed)
}

// methods is the number of methods in the mix; opUint64 and opInt63 are
// the two that take exactly one word from the source.
const (
	methods  = 10
	opUint64 = 7
	opInt63  = 8
)

// draw calls method op of the mix TestLockstepWithMathRand interleaves on
// both generators and returns the two results.
func (p *pair) draw(op int) (w, g any) {
	switch op {
	case 0:
		return p.want.Intn(1000), p.got.Intn(1000)
	case 1:
		return p.want.Int63n(1<<40 + 7), p.got.Int63n(1<<40 + 7)
	case 2:
		return p.want.Float64(), p.got.Float64()
	case 3:
		return p.want.ExpFloat64(), p.got.ExpFloat64()
	case 4:
		return p.want.NormFloat64(), p.got.NormFloat64()
	case 5:
		return p.want.Perm(7), p.got.Perm(7)
	case 6:
		for k := range p.wantDeck {
			p.wantDeck[k], p.gotDeck[k] = k, k
		}
		p.want.Shuffle(len(p.wantDeck), func(a, b int) { p.wantDeck[a], p.wantDeck[b] = p.wantDeck[b], p.wantDeck[a] })
		p.got.Shuffle(len(p.gotDeck), func(a, b int) { p.gotDeck[a], p.gotDeck[b] = p.gotDeck[b], p.gotDeck[a] })
		return p.wantDeck, p.gotDeck
	case opUint64:
		return p.want.Uint64(), p.got.Uint64()
	case opInt63:
		return p.want.Int63(), p.got.Int63()
	default:
		return p.wantZipf.Uint64(), p.gotZipf.Uint64()
	}
}

// agree draws method op on both generators and reports whether they agree,
// logging both values when they do not.
func (p *pair) agree(t testing.TB, op int) bool {
	t.Helper()
	w, g := p.draw(op)
	if reflect.DeepEqual(w, g) {
		return true
	}
	t.Errorf("method %d: math/rand gives %v, rng gives %v", op, w, g)
	return false
}

// TestStreamAcrossPhases draws 1,301 single words, draws 0 to 1,300, from a
// fresh stream per seed, so every stream crosses the switch to the register
// (draws 31–33), the first draw that reads a replayed write (272–274) and
// the register's wrap (606–608). Uint64 and Int63 alternate, each starting
// once, so both take every draw index.
func TestStreamAcrossPhases(t *testing.T) {
	const draws = 1301
	for _, seed := range lockstepSeeds() {
		for first := 0; first < 2; first++ {
			p := newPair(seed)
			for i := 0; i < draws; i++ {
				if !p.agree(t, opUint64+(i+first)%2) {
					t.Fatalf("seed %d, draw %d", seed, i)
				}
			}
		}
	}
}

// TestReseedInEveryPhase re-seeds after every draw count from 0 to 40, so
// some streams re-seed while lazy and some after their register exists, and
// then again once the register surely exists. The method mix runs between
// re-seeds.
func TestReseedInEveryPhase(t *testing.T) {
	const mixed = 300
	for _, seed := range edgeSeeds() {
		for k := 0; k <= window+8; k++ {
			p := newPair(seed)
			for i := 0; i < k; i++ {
				if !p.agree(t, opUint64+i%2) {
					t.Fatalf("seed %d, draw %d before re-seeding", seed, i)
				}
			}
			for r, next := range []int64{seed ^ 0x5eed, seed - 1} {
				p.reseed(next)
				for i := 0; i < mixed; i++ {
					if !p.agree(t, i%methods) {
						t.Fatalf("seed %d, %d draws, re-seed %d, op %d", seed, k, r, i)
					}
				}
			}
		}
	}
}

// holder keeps a generator the way flow's sources do, so that it escapes.
type holder struct{ r *rand.Rand }

var held holder

// TestStreamAllocations pins what a stream costs: New plus up to window
// draws is one allocation, and a longer stream adds its register. A
// rand.New that did not inline would add one more. A stream re-seeded after
// its register exists keeps it: re-seeded and drawn well past window again,
// run after run, it allocates nothing.
func TestStreamAllocations(t *testing.T) {
	for _, c := range []struct {
		draws int
		want  float64
	}{{0, 1}, {1, 1}, {11, 1}, {window, 1}, {window + 1, 2}, {400, 2}, {3 * length, 2}} {
		got := testing.AllocsPerRun(50, func() {
			h := holder{New(int64(c.draws))}
			for i := 0; i < c.draws; i++ {
				h.r.Int63()
			}
			held = h
		})
		if got != c.want {
			t.Errorf("New plus %d draws: %v allocations, want %v", c.draws, got, c.want)
		}
	}
	r := New(1)
	for i := 0; i <= window; i++ {
		r.Int63()
	}
	seed := int64(1)
	if got := testing.AllocsPerRun(50, func() {
		seed++
		r.Seed(seed)
		for i := 0; i < 2*length; i++ {
			r.Int63()
		}
	}); got != 0 {
		t.Errorf("re-seeding a stream whose register exists and drawing %d words: %v allocations, want 0", 2*length, got)
	}
}

// TestReseedRestartsLazy: a re-seed leaves the stream without a live
// register until draw window, as New does, and the fill at that draw
// writes the register the stream already had instead of a new one.
func TestReseedRestartsLazy(t *testing.T) {
	s := new(source)
	s.Seed(7)
	for i := 0; i <= window; i++ {
		s.Uint64()
	}
	reg := s.vec
	if reg == nil {
		t.Fatalf("no register after %d draws", window+1)
	}
	for _, seed := range []int64{8, 9, 8} {
		s.Seed(seed)
		for i := 0; i < window; i++ {
			if s.vec != nil {
				t.Fatalf("re-seeded with %d: register live after %d draws, want lazy until draw %d", seed, i, window)
			}
			s.Int63()
		}
		s.Uint64()
		if s.vec != reg {
			t.Fatalf("re-seeded with %d: draw %d filled register %p, want the kept %p", seed, window, s.vec, reg)
		}
	}
}

// FuzzStream runs an arbitrary sequence of Rand methods, bursts of draws
// and re-seeds against math/rand. Byte b picks op b%12: one of the mix's
// methods, a burst of 1+16·(b/12) single draws, or a re-seed with seed−b.
func FuzzStream(f *testing.F) {
	const (
		burst  = methods
		reseed = methods + 1
		ops    = methods + 2
	)
	// Each seed input re-seeds while lazy, runs one stream past draws 32,
	// 273 and 607, re-seeds the register in place and crosses 273 again.
	long, past273 := byte(burst+ops*20), byte(burst+ops*17)
	for i, seed := range edgeSeeds() {
		f.Add(seed, []byte{opUint64, opInt63, reseed, byte(i % methods), long, long, reseed, opUint64, past273, 5, 6, 4, 9, 3, opInt63})
	}
	f.Fuzz(func(t *testing.T, seed int64, in []byte) {
		p := newPair(seed)
		for i, b := range in {
			switch op := int(b % ops); op {
			case burst:
				for k := 0; k <= 16*int(b/ops); k++ {
					if !p.agree(t, opUint64+k%2) {
						t.Fatalf("seed %d, byte %d, burst draw %d", seed, i, k)
					}
				}
			case reseed:
				p.reseed(seed - int64(b))
			default:
				if !p.agree(t, op) {
					t.Fatalf("seed %d, byte %d", seed, i)
				}
			}
		}
	})
}

// BenchmarkRNGStream seeds a stream held the way flow's sources hold theirs
// and draws from it: light is greedy-dense256's median stream (11 draws),
// heavy about fdd-grid64's 90th percentile (400).
func BenchmarkRNGStream(b *testing.B) {
	for _, c := range []struct {
		name  string
		draws int
	}{{"light", 11}, {"heavy", 400}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := holder{New(int64(i))}
				for k := 0; k < c.draws; k++ {
					h.r.Int63()
				}
				held = h
			}
		})
	}
}

// TestOneSeedingPath: every generator the program seeds comes from New, so
// no non-test file of the module outside this package may call
// rand.NewSource. Nested modules (with their own go.mod) are not part of the
// module and are skipped.
func TestOneSeedingPath(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	const call = "rand." + "NewSource("
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if path == self || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		checked++
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), call) {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d calls %s; seed generators with rng.New", rel, line, call)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("only %d files checked; the walk missed the module", checked)
	}
}

// TestSplitMix64 pins the finalizer to the reference SplitMix64 sequence:
// outputs for states 0, γ, 2γ (γ = 0x9e3779b97f4a7c15) from seed 0.
func TestSplitMix64(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := SplitMix64(uint64(i) * gamma); got != want {
			t.Errorf("SplitMix64(%d·γ) = %#x, want %#x", i, got, want)
		}
	}
}
