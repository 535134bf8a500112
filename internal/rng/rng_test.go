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

// lockstepSeeds returns the seeds the lockstep test covers: the edges of
// math/rand's seed normalization (zero, negatives, multiples of 2³¹−1, the
// int64 extremes and the zero-seed replacement) plus pseudo-random seeds
// spread over the whole int64 range.
func lockstepSeeds() []int64 {
	seeds := []int64{
		0, 1, 2, -1, -2, 42, -42,
		mod, -mod, 2 * mod, -2 * mod, 1000 * mod, mod - 1, mod + 1, -mod + 1, -mod - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		zeroSeed, -zeroSeed, 1 << 31, 1 << 32, 1 << 62, -(1 << 62),
	}
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
