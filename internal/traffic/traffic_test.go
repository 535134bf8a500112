package traffic

import (
	"math/rand"
	"testing"
)

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := Uniform(5000, 1, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, x := range d {
		if x < 1 || x > 10 {
			t.Fatalf("demand %d outside [1,10]", x)
		}
		seen[x] = true
	}
	for v := 1; v <= 10; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn in 5000 samples", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := Uniform(3, 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range d {
		if x != 4 {
			t.Errorf("constant-range uniform gave %d", x)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Uniform(3, 5, 2, rng); err == nil {
		t.Error("lo > hi should fail")
	}
	if _, err := Uniform(3, -1, 2, rng); err == nil {
		t.Error("negative lo should fail")
	}
}

func TestZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, err := Zipf(2000, 1.5, 1, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	count1, countHi := 0, 0
	for _, x := range d {
		if x < 1 || x > 10 {
			t.Fatalf("zipf demand %d outside [1,10]", x)
		}
		if x == 1 {
			count1++
		}
		if x >= 8 {
			countHi++
		}
	}
	if count1 <= countHi {
		t.Errorf("zipf should be skewed toward 1: got %d ones vs %d highs", count1, countHi)
	}
}

func TestZipfErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := Zipf(10, 1.0, 1, 10, rng); err == nil {
		t.Error("s <= 1 should fail")
	}
	if _, err := Zipf(10, 1.5, 0.5, 10, rng); err == nil {
		t.Error("v < 1 should fail")
	}
	if _, err := Zipf(10, 1.5, 1, 0, rng); err == nil {
		t.Error("max < 1 should fail")
	}
}
