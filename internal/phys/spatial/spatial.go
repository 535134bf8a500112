// Package spatial implements the grid-bucket interference engine: a
// phys.Engine over node positions that replaces the dense n*n gain matrix
// with O(n) state — per-node positions and powers, a bucket grid,
// and a per-bucket-delta gain upper-bound table.
//
// Gain queries split by use. Gain, which gives the signal terms (the
// favorable side of each SINR inequality), is always computed exactly from
// the path-loss model, so the engine never flatters a link. InterfGain,
// which a sender's power takes into an interference sum, is exact for pairs
// whose buckets can lie within the cutoff radius, and conservatively
// over-estimated beyond it: the gain between buckets at delta (dx, dy) is
// capped by the path-loss gain at the minimum possible distance between
// them. Gain is monotone decreasing in distance, so the cap is an upper
// bound — the engine may reject a slot the exact model would admit, but
// every slot it admits is feasible under the exact model (the
// conservativeness property TestSpatialConservativeVsDense fuzzes). Both
// answers depend on the pair only, not its order.
//
// The far-field cap is what the decomposition results justify:
// Halldórsson–Mitra (arXiv:1104.5200) show SINR scheduling decomposes
// spatially, and Zhou et al. (arXiv:1208.0902) bound aggregate far-field
// interference by distance rings — the bucket-delta table is exactly such a
// ring bound, evaluated per pair as one table lookup instead of a
// hypot+pow.
//
// An Index follows the Channel concurrency contract: no lazy state, so any
// number of concurrent readers are safe; MoveNode/RemoveNode/RestoreNode
// require exclusive access.
package spatial

import (
	"fmt"
	"math"

	"scream/internal/geom"
	"scream/internal/phys"
)

// maxBuckets caps the bucket grid (and with it the delta table) so a tiny
// bucket size over a huge region cannot allocate unbounded memory; the
// constructor coarsens the bucket edge until the grid fits. 1<<21 buckets
// is ~16 MB of table — far above any realistic deployment density.
const maxBuckets = 1 << 21

// Config describes the deployment an Index is built over.
type Config struct {
	// Pos holds every node's position in meters.
	Pos []geom.Point
	// TxPowerMW holds every node's transmit power in milliwatts.
	TxPowerMW []float64
	// PathLoss is the deterministic propagation model. The spatial engine
	// supports pure log-distance only: per-pair shadowing has no spatial
	// structure to bound, so shadowed deployments must use the dense engine.
	PathLoss phys.LogDistance
	// NoiseMW is the background noise power in milliwatts.
	NoiseMW float64
	// Beta is the linear SINR threshold.
	Beta float64
	// Region bounds the bucket grid. The zero Rect means "compute the
	// bounding box of Pos". Nodes outside the region (e.g. after mobility)
	// are clamped to the nearest edge bucket; clamping is a projection onto
	// a convex set, hence non-expansive, so bucket distances remain true
	// lower bounds and the far-field cap stays conservative.
	Region geom.Rect
	// CutoffM is the exact-interference radius in meters. Pairs whose
	// buckets can lie within it get exact interference; beyond it the
	// bucket cap applies. 0 picks the distance at which the strongest
	// transmitter's received power falls to a tenth of the noise floor.
	CutoffM float64
	// BucketM is the bucket edge length in meters. 0 picks CutoffM/2.
	BucketM float64
}

// Index is the grid-bucket spatial interference engine. It implements
// phys.Engine.
type Index struct {
	pos       []geom.Point
	txPowerMW []float64
	pl        phys.LogDistance
	noiseMW   float64
	beta      float64
	removed   []bool

	region  geom.Rect
	bucketM float64
	nx, ny  int

	bucketOf []int32 // node -> bucket id (by*nx + bx)

	cutoffM      float64
	gainAtCutoff float64   // exact gain at the cutoff radius
	gainUB       []float64 // |dy|*nx + |dx| -> far-field gain cap; nearSentinel inside cutoff
}

// nearSentinel marks bucket deltas whose minimum distance is within the
// cutoff: those pairs take the exact-distance branch.
const nearSentinel = -1

var _ phys.Engine = (*Index)(nil)

// New builds the spatial index over the deployment in cfg.
func New(cfg Config) (*Index, error) {
	n := len(cfg.Pos)
	if n == 0 {
		return nil, fmt.Errorf("spatial: no nodes")
	}
	if len(cfg.TxPowerMW) != n {
		return nil, fmt.Errorf("spatial: %d TX powers for %d nodes", len(cfg.TxPowerMW), n)
	}
	if cfg.NoiseMW <= 0 {
		return nil, fmt.Errorf("spatial: noise must be positive, got %v", cfg.NoiseMW)
	}
	if cfg.Beta <= 0 {
		return nil, fmt.Errorf("spatial: beta must be positive, got %v", cfg.Beta)
	}
	if err := cfg.PathLoss.Validate(); err != nil {
		return nil, err
	}
	maxTx := 0.0
	for i, p := range cfg.TxPowerMW {
		if p <= 0 {
			return nil, fmt.Errorf("spatial: node %d has non-positive TX power %v", i, p)
		}
		if p > maxTx {
			maxTx = p
		}
	}

	region := cfg.Region
	if region == (geom.Rect{}) {
		region = boundingBox(cfg.Pos)
	}
	if region.Width() < 0 || region.Height() < 0 {
		return nil, fmt.Errorf("spatial: inverted region %+v", region)
	}

	cutoff := cfg.CutoffM
	if cutoff < 0 {
		return nil, fmt.Errorf("spatial: negative cutoff %v", cutoff)
	}
	if cutoff == 0 {
		// Default: the strongest transmitter's received power falls to a
		// tenth of the noise floor — beyond this each far-field term is
		// negligible against noise, so the cap costs little goodput.
		cutoff = cfg.PathLoss.MaxRange(maxTx, cfg.NoiseMW, 0.1)
	}
	if cutoff < cfg.PathLoss.RefDist {
		cutoff = cfg.PathLoss.RefDist
	}
	bucket := cfg.BucketM
	if bucket < 0 {
		return nil, fmt.Errorf("spatial: negative bucket size %v", bucket)
	}
	if bucket == 0 {
		bucket = cutoff / 2
	}
	nx, ny, bucket := gridDims(region, bucket)

	idx := &Index{
		pos:          append([]geom.Point(nil), cfg.Pos...),
		txPowerMW:    append([]float64(nil), cfg.TxPowerMW...),
		pl:           cfg.PathLoss,
		noiseMW:      cfg.NoiseMW,
		beta:         cfg.Beta,
		removed:      make([]bool, n),
		region:       region,
		bucketM:      bucket,
		nx:           nx,
		ny:           ny,
		bucketOf:     make([]int32, n),
		cutoffM:      cutoff,
		gainAtCutoff: cfg.PathLoss.Gain(cutoff),
	}
	idx.gainUB = make([]float64, nx*ny)
	for dy := 0; dy < ny; dy++ {
		for dx := 0; dx < nx; dx++ {
			d := idx.bucketDistLB(dx, dy)
			if d <= cutoff {
				idx.gainUB[dy*nx+dx] = nearSentinel
			} else {
				idx.gainUB[dy*nx+dx] = cfg.PathLoss.Gain(d)
			}
		}
	}
	for u := range idx.pos {
		idx.bucketOf[u] = int32(idx.bucketIndex(idx.pos[u]))
	}
	return idx, nil
}

func boundingBox(pos []geom.Point) geom.Rect {
	r := geom.Rect{MinX: pos[0].X, MinY: pos[0].Y, MaxX: pos[0].X, MaxY: pos[0].Y}
	for _, p := range pos[1:] {
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r
}

// gridDims returns the bucket grid over region, doubling the bucket edge
// until the grid has at most maxBuckets buckets, and the edge it settles on.
// The cap is checked on the float quotients: converting a huge quotient to
// int first would overflow and defeat the check.
func gridDims(region geom.Rect, bucket float64) (nx, ny int, edge float64) {
	for {
		fx := math.Ceil(region.Width()/bucket) + 1
		fy := math.Ceil(region.Height()/bucket) + 1
		if !(fx*fy > maxBuckets) {
			return max(int(fx), 1), max(int(fy), 1), bucket
		}
		bucket *= 2
	}
}

// bucketDistLB returns the minimum possible distance between two points
// whose buckets differ by (dx, dy) grid steps: adjacent or identical
// buckets can touch (distance 0), beyond that each axis contributes
// (delta-1) full bucket edges.
func (x *Index) bucketDistLB(dx, dy int) float64 {
	fx, fy := 0.0, 0.0
	if dx > 1 {
		fx = float64(dx-1) * x.bucketM
	}
	if dy > 1 {
		fy = float64(dy-1) * x.bucketM
	}
	return math.Hypot(fx, fy)
}

// bucketIndex hashes a position (clamped to the region) to its bucket id.
func (x *Index) bucketIndex(p geom.Point) int {
	px := math.Min(math.Max(p.X, x.region.MinX), x.region.MaxX)
	py := math.Min(math.Max(p.Y, x.region.MinY), x.region.MaxY)
	bx := int((px - x.region.MinX) / x.bucketM)
	by := int((py - x.region.MinY) / x.bucketM)
	if bx >= x.nx {
		bx = x.nx - 1
	}
	if by >= x.ny {
		by = x.ny - 1
	}
	return by*x.nx + bx
}

// NumNodes implements phys.Engine.
func (x *Index) NumNodes() int { return len(x.pos) }

// NoiseMW implements phys.Engine.
func (x *Index) NoiseMW() float64 { return x.noiseMW }

// Beta implements phys.Engine.
func (x *Index) Beta() float64 { return x.beta }

// TxPowerMW implements phys.Engine.
func (x *Index) TxPowerMW(u int) float64 { return x.txPowerMW[u] }

// Gain implements phys.Engine: the exact path-loss gain between u and v
// (0 for u == v and for silenced nodes, matching the dense channel after
// RemoveNode), computed on demand. Signal terms are never approximated —
// that is what keeps the engine's admissions feasible under the exact model.
func (x *Index) Gain(u, v int) float64 {
	if u == v || x.removed[u] || x.removed[v] {
		return 0
	}
	return x.pl.Gain(x.pos[u].Dist(x.pos[v]))
}

// InterfGain implements phys.Engine: an upper bound on the gain between u
// and v, symmetric because both the bucket delta and the distance are.
// Pairs whose bucket delta can lie within the cutoff radius are resolved
// exactly (capped at the cutoff gain when the actual distance lands beyond
// it); farther pairs pay one table lookup — the gain at the minimum
// distance their buckets allow.
func (x *Index) InterfGain(u, v int) float64 {
	if u == v || x.removed[u] || x.removed[v] {
		return 0
	}
	bu, bv := int(x.bucketOf[u]), int(x.bucketOf[v])
	dx := bu%x.nx - bv%x.nx
	if dx < 0 {
		dx = -dx
	}
	dy := bu/x.nx - bv/x.nx
	if dy < 0 {
		dy = -dy
	}
	if ub := x.gainUB[dy*x.nx+dx]; ub != nearSentinel {
		return ub
	}
	d := x.pos[u].Dist(x.pos[v])
	if d > x.cutoffM {
		return x.gainAtCutoff
	}
	return x.pl.Gain(d)
}

// MoveNode updates node u's position, rehashing it into its new bucket:
// its position and bucket id change, nothing else.
// Requires exclusive access, like Channel.MoveNode.
func (x *Index) MoveNode(u int, p geom.Point) error {
	if u < 0 || u >= len(x.pos) {
		return fmt.Errorf("spatial: node %d out of range for %d nodes", u, len(x.pos))
	}
	x.pos[u] = p
	x.bucketOf[u] = int32(x.bucketIndex(p))
	return nil
}

// RemoveNode silences node u: its gains, exact and interference, all become
// 0 — the spatial counterpart of Channel.RemoveNode. Idempotent. Requires
// exclusive access.
func (x *Index) RemoveNode(u int) error {
	if u < 0 || u >= len(x.pos) {
		return fmt.Errorf("spatial: node %d out of range for %d nodes", u, len(x.pos))
	}
	if x.removed[u] {
		return nil
	}
	x.removed[u] = true
	return nil
}

// RestoreNode reinstates a silenced node at its current position — the
// spatial counterpart of re-adding the gain row through Channel.MoveNode.
// Idempotent. Requires exclusive access.
func (x *Index) RestoreNode(u int) error {
	if u < 0 || u >= len(x.pos) {
		return fmt.Errorf("spatial: node %d out of range for %d nodes", u, len(x.pos))
	}
	if !x.removed[u] {
		return nil
	}
	x.removed[u] = false
	return nil
}

// MemoryBytes returns the index's resident size: every slice's backing
// array plus the struct itself. Deterministic (derived from lengths, not
// the allocator), which is what lets FigScale plot it as a reproducible
// series against the dense engine's 8*n*n-byte gain matrix.
func (x *Index) MemoryBytes() int {
	return 2*8 + // struct overhead approximation: region + scalars live inline
		len(x.pos)*16 + // positions
		len(x.txPowerMW)*8 +
		len(x.removed) +
		len(x.bucketOf)*4 +
		len(x.gainUB)*8
}
