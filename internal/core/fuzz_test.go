package core

import (
	"math"
	"math/rand"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
	"scream/internal/topo"
)

// protoCase is one FuzzProtocol input. Every field decodes modulo its range,
// so any value is a valid case:
//   - Kind: grid (0), uniform (1) or line (2), at 30 m steps or, for a
//     uniform deployment, 30·√n m sides;
//   - Size: the grid's side 2–6, the uniform's node count 4–36 or the
//     line's 2–16;
//   - Spread: the transmit power's spread in dB, 0–6: a uniform draws each
//     node's power in [16, 16+Spread] dBm, a grid or line raises the power
//     its step derives by up to Spread dB per node;
//   - Shadow: the log-normal shadowing's σ in dB, 0–4;
//   - K: the SCREAM length, ID(G_S) − 1 up to ID(G_S) + 2;
//   - Channels: 1–3; Radios: 1–2; Demand: the per-node demand cap, 1–3;
//   - Variant: FDD or PDD (bit 0) and ASAPSeal (bit 1); PDD activates with
//     probability P in 0.1–1.0;
//   - Seed: the deployment's draws, the forest's, the demands' and PDD's.
type protoCase struct {
	Kind, Size, Spread, Shadow, K, Channels, Radios, Demand, Variant, P uint8
	Seed                                                                int64
}

// deploy builds the case's network and routed fixture. A deployment that
// cannot be routed returns an error.
func (c protoCase) deploy() (*fixture, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	params := topo.DefaultParams()
	params.ShadowSigmaDB = float64(c.Shadow % 5)
	spread := float64(c.Spread % 7)
	maxDemand := 1 + int(c.Demand%3)
	var pts []geom.Point
	var region geom.Rect
	switch c.Kind % 3 {
	case 1:
		n := 4 + int(c.Size%33)
		net, err := topo.NewUniform(topo.UniformConfig{
			N: n, Side: 30 * math.Sqrt(float64(n)), MinTxDBm: 16, MaxTxDBm: phys.DBm(16 + spread), Params: params,
		}, rng)
		if err != nil {
			return nil, err
		}
		return routeFixture(net, []int{0, n - 1}, maxDemand, rng)
	case 0:
		dim := 2 + int(c.Size%5)
		pts = topo.GridPositions(dim, dim, 30)
		region = geom.Rect{MaxX: float64(dim-1) * 30, MaxY: float64(dim-1) * 30}
	default:
		n := 2 + int(c.Size%15)
		pts = topo.LinePositions(n, 30)
		region = geom.Rect{MaxX: float64(n-1) * 30}
	}
	// The power topo.NewGrid and topo.NewLine derive for a 30 m step.
	power := params.PathLoss.PowerForRange(30*1.05, params.NoiseMW, params.Beta)
	pw := topo.HomogeneousPower(len(pts), power)
	if spread > 0 {
		for i := range pw {
			pw[i] *= phys.DB(rng.Float64() * spread).Linear()
		}
	}
	net, err := topo.Build(pts, pw, region, params, rng)
	if err != nil {
		return nil, err
	}
	return routeFixture(net, []int{0}, maxDemand, rng)
}

// config returns the case's protocol configuration over fx, with a fresh
// PDD random stream.
func (c protoCase) config(fx *fixture) Config {
	cfg := Config{
		Variant: FDD, Links: fx.links, Demands: fx.demands, ASAPSeal: c.Variant&2 != 0,
		NumChannels: 1 + int(c.Channels%3), NumRadios: 1 + int(c.Radios%2),
	}
	if c.Variant&1 != 0 {
		cfg.Variant = PDD
		cfg.Probability = float64(1+c.P%10) / 10
		cfg.RNG = rand.New(rand.NewSource(c.Seed))
	}
	return cfg
}

// FuzzProtocol runs each decoded case three ways: on a bare fast-mode
// IdealBackend (word-tested SCREAMs, top-bit elections and the loop's own
// handshake slot), behind a forwarding wrapper (the []bool boundary and the
// backend's reference handshake) and on a strict backend (flooded SCREAMs
// and bitwise elections). The three runs must give the same Result,
// Observer events, trace bytes and accounting, and the schedule must pass
// VerifyMulti within the radio budget. A K below the interference diameter
// must make the fast constructor refuse with an error; a strict backend
// accepts it, and its run must then end in an error or a verified schedule.
// The corpus holds the deployments of TestOneLoopTwoBoundaries (5×5, seed
// 61), TestStrictBackendFullProtocol (4×4 seed 56, 5×5 seed 57, uniform
// seeds 77 and 78) and the 4×4 and 5×5 grids of seeds 1–4, at demands in
// [1, 3].
func FuzzProtocol(f *testing.F) {
	const fdd, pdd, asap = 0, 1, 2
	grid := func(dim int, seed int64, variant, channels, radios uint8) protoCase {
		return protoCase{Size: uint8(dim - 2), K: 1, Channels: channels - 1, Radios: radios - 1,
			Demand: 2, Variant: variant, P: 4, Seed: seed}
	}
	uniform := func(seed int64, variant, channels, radios uint8) protoCase {
		return protoCase{Kind: 1, Size: 32, Spread: 6, K: 1, Channels: channels - 1, Radios: radios - 1,
			Demand: 2, Variant: variant, P: 4, Seed: seed}
	}
	cases := []protoCase{
		grid(5, 61, fdd, 1, 1), grid(5, 61, pdd|asap, 2, 1), grid(5, 61, fdd|asap, 3, 2), grid(5, 61, pdd, 3, 2),
		grid(4, 56, fdd, 1, 1), grid(4, 56, pdd, 2, 2), grid(5, 57, fdd, 2, 2), grid(5, 57, pdd, 1, 1),
		uniform(77, fdd, 1, 1), uniform(77, pdd, 2, 2), uniform(78, fdd, 2, 2), uniform(78, pdd, 1, 1),
		{Kind: 2, Size: 10, Demand: 2, Seed: 5},                                                       // a line, K = ID − 1
		{Kind: 2, Size: 6, Spread: 4, Shadow: 1, Channels: 1, Demand: 2, Variant: pdd, P: 6, Seed: 9}, // shadowed
		{Kind: 1, Size: 12, Spread: 4, Shadow: 3, K: 2, Channels: 2, Radios: 1, Variant: fdd | asap, Seed: 9},
	}
	for dim := 4; dim <= 5; dim++ {
		for seed := int64(1); seed <= 4; seed++ {
			cases = append(cases, grid(dim, seed, fdd, 1, 1), grid(dim, seed, pdd, 1, 1))
		}
	}
	for _, c := range cases {
		f.Add(c.Kind, c.Size, c.Spread, c.Shadow, c.K, c.Channels, c.Radios, c.Demand, c.Variant, c.P, c.Seed)
	}
	f.Fuzz(func(t *testing.T, kind, size, spread, shadow, kSel, channels, radios, demand, variant, p uint8, seed int64) {
		c := protoCase{kind, size, spread, shadow, kSel, channels, radios, demand, variant, p, seed}
		fx, err := c.deploy()
		if err != nil {
			return
		}
		net := fx.net
		id := net.InterferenceDiameter()
		k := id + int(c.K%4) - 1
		fast, err := NewIdealBackend(net.Channel, net.Sens, k, DefaultTiming(), false)
		strict, serr := NewIdealBackend(net.Channel, net.Sens, k, DefaultTiming(), true)
		if serr != nil {
			t.Fatalf("strict backend refused k = %d (ID = %d): %v", k, id, serr)
		}
		cfg := c.config(fx)
		if k > 0 && k < id {
			if err == nil {
				t.Fatalf("fast backend accepted k = %d below ID = %d", k, id)
			}
			cfg.Backend = strict
			if res, err := Run(cfg); err == nil {
				verifyRun(t, fx, cfg, res)
			}
			return
		}
		if err != nil {
			t.Fatalf("fast backend refused k = %d (ID = %d): %v", k, id, err)
		}
		run := observe(t, cfg, fast, false)
		sameRun(t, run, "wrapped", observe(t, c.config(fx), fast.Clone(), true))
		sameRun(t, run, "strict", observe(t, c.config(fx), strict, false))
		verifyRun(t, fx, cfg, run.res)
	})
}

// verifyRun requires res's schedule to deliver fx's demands and pass
// VerifyMulti on the exact channel within cfg's radio budget.
func verifyRun(t *testing.T, fx *fixture, cfg Config, res *Result) {
	t.Helper()
	if err := res.Schedule.VerifyMulti(fx.net.Channel, cfg.NumChannels, cfg.NumRadios, fx.links, fx.demands); err != nil {
		t.Fatal(err)
	}
}
