package spatial

import (
	"fmt"
	"math"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
)

// TestTinyBucketsCoarsen: a bucket edge far below the deployment's scale
// must coarsen to a grid of at most maxBuckets buckets. Checked on int
// bucket counts instead of float quotients, the cap is defeated by overflow:
// 1e-300 overflows the int conversion and 1e-9 the bucket product.
func TestTinyBucketsCoarsen(t *testing.T) {
	var pos []geom.Point
	var pw []float64
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			pos = append(pos, geom.Point{X: 30 * float64(c), Y: 30 * float64(r)})
			pw = append(pw, 20)
		}
	}
	for _, bucket := range []float64{1e-300, 1e-9, 1e-6, 0} {
		t.Run(fmt.Sprint(bucket), func(t *testing.T) {
			idx, err := New(Config{
				Pos: pos, TxPowerMW: pw, PathLoss: phys.DefaultLogDistance(),
				NoiseMW: 1e-10, Beta: 10, BucketM: bucket,
			})
			if err != nil {
				t.Fatal(err)
			}
			if nb := idx.NumBuckets(); nb < 1 || nb > maxBuckets {
				t.Errorf("%d buckets, want 1..%d", nb, maxBuckets)
			}
			if e := idx.BucketM(); !(e >= bucket && e > 0 && !math.IsInf(e, 0)) {
				t.Errorf("bucket edge %v from requested %v", e, bucket)
			}
		})
	}
}
