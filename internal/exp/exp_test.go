package exp

import (
	"fmt"
	"testing"

	"scream/internal/core"
	"scream/internal/sched"
	"scream/internal/stats"
)

var quick = Options{Quick: true, Seeds: 2}

// lookup returns fig's series with the given name, or nil.
func lookup(fig *stats.Figure, name string) *stats.Series {
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func TestGridScenario(t *testing.T) {
	s, err := GridScenario(10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Net.NumNodes() != 64 {
		t.Fatalf("want 64 nodes, got %d", s.Net.NumNodes())
	}
	if !s.Net.Connected() {
		t.Fatal("grid scenario must be connected")
	}
	if len(s.Links) != 60 {
		t.Errorf("64 nodes with 4 gateways should yield 60 links, got %d", len(s.Links))
	}
	if s.TotalDemand() <= 0 {
		t.Error("positive total demand expected")
	}
}

func TestGridScenarioConnectedAcrossDensities(t *testing.T) {
	for _, d := range Densities(false) {
		s, err := GridScenario(d, 7)
		if err != nil {
			t.Fatalf("density %g: %v", d, err)
		}
		if !s.Net.Connected() {
			t.Errorf("density %g: disconnected grid", d)
		}
		if id := s.Net.InterferenceDiameter(); id <= 0 {
			t.Errorf("density %g: bad interference diameter %d", d, id)
		}
	}
}

func TestUniformScenario(t *testing.T) {
	s, err := UniformScenario(10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Net.NumNodes() != 64 || len(s.Links) != 60 {
		t.Errorf("nodes=%d links=%d", s.Net.NumNodes(), len(s.Links))
	}
}

func TestRunCentralizedAndProtocolAgree(t *testing.T) {
	// Theorem 4 at the harness level: FDD improvement == centralized
	// improvement on the same scenario.
	s, err := GridScenario(10000, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunCentralized(s)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := RunProtocol(s, core.FDD, 0, core.DefaultTiming(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != f {
		t.Errorf("centralized improvement %.2f != FDD %.2f", c, f)
	}
}

func TestFig4Shape(t *testing.T) {
	fig, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	s := lookup(fig, "detection error")
	if s == nil || len(s.Points) != 3 {
		t.Fatal("missing detection error series")
	}
	// Error must fall with scream size; 24B must be near zero.
	if s.Points[0].Y < s.Points[2].Y {
		t.Errorf("error should decrease with size: %v", s.Points)
	}
	if s.Points[2].Y > 10 {
		t.Errorf("24-byte error should be negligible, got %.1f%%", s.Points[2].Y)
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	ma := lookup(fig, "RSSI MA")
	if ma == nil || len(ma.Points) == 0 {
		t.Fatal("missing RSSI MA series")
	}
	above := 0
	for _, p := range ma.Points {
		if p.Y > -60 {
			above++
		}
	}
	if above == 0 {
		t.Error("trace should cross the -60 dBm threshold periodically")
	}
}

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	cent := lookup(fig, "Centralized")
	fdd := lookup(fig, "FDD")
	pdd2 := lookup(fig, "PDD p=0.2")
	pdd8 := lookup(fig, "PDD p=0.8")
	if cent == nil || fdd == nil || pdd2 == nil || pdd8 == nil {
		t.Fatal("missing series")
	}
	for i := range cent.Points {
		// FDD tracks the centralized algorithm exactly (Theorem 4).
		if fdd.Points[i].Y != cent.Points[i].Y {
			t.Errorf("point %d: FDD %.2f != centralized %.2f", i, fdd.Points[i].Y, cent.Points[i].Y)
		}
		// PDD must not beat FDD meaningfully (paper: ~10 points worse).
		if pdd8.Points[i].Y > fdd.Points[i].Y+2 {
			t.Errorf("point %d: PDD p=0.8 (%.1f) should not beat FDD (%.1f)", i, pdd8.Points[i].Y, fdd.Points[i].Y)
		}
	}
	// Sparse deployments have deep forests and strong spatial reuse: the
	// first point should be in the paper's high-improvement regime.
	first, last := cent.Points[0], cent.Points[len(cent.Points)-1]
	if first.Y < 40 {
		t.Errorf("sparse grid improvement %.1f%% too small; expected ~60%%", first.Y)
	}
	// Density flattens the forest onto the gateways, eroding reuse.
	if last.Y >= first.Y {
		t.Errorf("improvement should decline with density: %.1f%% -> %.1f%%", first.Y, last.Y)
	}
	t.Logf("Fig6 (quick): centralized %.1f%% -> %.1f%%, PDD0.8 %.1f%% -> %.1f%%",
		first.Y, last.Y, pdd8.Points[0].Y, pdd8.Points[len(pdd8.Points)-1].Y)
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	cent := lookup(fig, "Centralized")
	fdd := lookup(fig, "FDD")
	pdd := lookup(fig, "PDD p=0.8")
	if cent == nil || fdd == nil || pdd == nil {
		t.Fatal("missing series")
	}
	for i := range cent.Points {
		if fdd.Points[i].Y != cent.Points[i].Y {
			t.Errorf("point %d: FDD %.2f != centralized %.2f", i, fdd.Points[i].Y, cent.Points[i].Y)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	fig, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FDD Scream size (bytes)", "PDD Scream size (bytes)", "FDD Diameter", "PDD Diameter"} {
		s := lookup(fig, name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		// Execution time must grow monotonically with the swept parameter.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y {
				t.Errorf("%s: time not monotone at %v", name, s.Points[i].X)
			}
		}
	}
	// PDD must be faster than FDD everywhere.
	fddS := lookup(fig, "FDD Scream size (bytes)")
	pddS := lookup(fig, "PDD Scream size (bytes)")
	for i := range fddS.Points {
		if pddS.Points[i].Y >= fddS.Points[i].Y {
			t.Errorf("PDD should be faster than FDD at x=%v", fddS.Points[i].X)
		}
	}
	t.Logf("Fig8 (quick): FDD %.2fs..%.2fs, PDD %.2fs..%.2fs",
		fddS.Points[0].Y, fddS.Points[len(fddS.Points)-1].Y,
		pddS.Points[0].Y, pddS.Points[len(pddS.Points)-1].Y)
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	fdd := lookup(fig, "FDD")
	pdd := lookup(fig, "PDD p=0.2")
	if fdd == nil || pdd == nil {
		t.Fatal("missing series")
	}
	// Time grows with skew, and by orders of magnitude from 1us to 1s.
	if fdd.Points[len(fdd.Points)-1].Y < 100*fdd.Points[0].Y {
		t.Errorf("FDD at 1s skew should dwarf 1us skew: %v", fdd.Points)
	}
	for i := range fdd.Points {
		if pdd.Points[i].Y >= fdd.Points[i].Y {
			t.Errorf("PDD should be faster than FDD at skew %v", fdd.Points[i].X)
		}
	}
	t.Logf("Fig9 (quick): FDD %.2fs..%.0fs, PDD %.2fs..%.0fs",
		fdd.Points[0].Y, fdd.Points[len(fdd.Points)-1].Y, pdd.Points[0].Y, pdd.Points[len(pdd.Points)-1].Y)
}

func TestAblationPDDProbability(t *testing.T) {
	fig, err := AblationPDDProbability(quick)
	if err != nil {
		t.Fatal(err)
	}
	if lookup(fig, "PDD improvement") == nil || lookup(fig, "PDD exec time (s)") == nil {
		t.Fatal("missing series")
	}
}

func TestAblationGreedyOrdering(t *testing.T) {
	fig, err := AblationGreedyOrdering(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("want 3 orderings, got %d", len(fig.Series))
	}
}

func TestAblationScreamK(t *testing.T) {
	fig, err := AblationScreamK(quick)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y <= s.Points[i-1].Y {
			t.Errorf("exec time must grow with K multiplier: %v", s.Points)
		}
	}
}

func TestAblationAckModel(t *testing.T) {
	fig, err := AblationAckModel(quick)
	if err != nil {
		t.Fatal(err)
	}
	full := lookup(fig, "schedule length (full model)")
	data := lookup(fig, "data-only")
	if data == nil {
		data = lookup(fig, "schedule length (data-only)")
	}
	if full == nil || data == nil {
		t.Fatal("missing series")
	}
	for i := range full.Points {
		// Greedy is not monotone under constraint relaxation, so allow a
		// small inversion; grossly longer data-only schedules would mean
		// the relaxation is wired up wrong.
		if data.Points[i].Y > full.Points[i].Y*1.05+1 {
			t.Errorf("data-only schedule much longer than full at %v: %.1f vs %.1f",
				full.Points[i].X, data.Points[i].Y, full.Points[i].Y)
		}
	}
}

func TestAblationFDDSeal(t *testing.T) {
	fig, err := AblationFDDSeal(quick)
	if err != nil {
		t.Fatal(err)
	}
	normal := lookup(fig, "paper seal")
	asap := lookup(fig, "ASAP seal")
	for i := range normal.Points {
		if asap.Points[i].Y >= normal.Points[i].Y {
			t.Errorf("ASAP seal should be faster at %v", normal.Points[i].X)
		}
	}
}

func TestAblationBalancedRouting(t *testing.T) {
	fig, err := AblationBalancedRouting(quick)
	if err != nil {
		t.Fatal(err)
	}
	tdPlain := lookup(fig, "TD (random tie-break)")
	tdBal := lookup(fig, "TD (balanced)")
	if tdPlain == nil || tdBal == nil {
		t.Fatal("missing series")
	}
	// Balancing must not blow up TD (hop counts are identical; only
	// tie-breaks differ, so TD should match or shrink slightly).
	for i := range tdPlain.Points {
		if tdBal.Points[i].Y > tdPlain.Points[i].Y*1.02 {
			t.Errorf("balanced TD larger at %v: %.0f vs %.0f",
				tdPlain.Points[i].X, tdBal.Points[i].Y, tdPlain.Points[i].Y)
		}
	}
}

func TestAblationMoteRelays(t *testing.T) {
	fig, err := AblationMoteRelays(quick)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	for _, p := range s.Points {
		if p.Y > 25 {
			t.Errorf("detection error %.1f%% at %v relays: collisions must not break SCREAM", p.Y, p.X)
		}
	}
}

func TestAblationShadowing(t *testing.T) {
	fig, err := AblationShadowing(quick)
	if err != nil {
		t.Fatal(err)
	}
	s := lookup(fig, "GreedyPhysical improvement")
	if s == nil || len(s.Points) != 3 {
		t.Fatal("missing improvement series")
	}
	for _, p := range s.Points {
		if p.Y < 0 || p.Y > 100 {
			t.Errorf("improvement %.1f out of range at sigma %v", p.Y, p.X)
		}
	}
}

func TestShadowedPipelineTheorem4(t *testing.T) {
	// FDD == GreedyPhysical must hold on irregular (shadowed) channels
	// too: nothing in Theorem 4 depends on geometry.
	for _, sigma := range []float64{2, 6} {
		if err := verifyShadowedPipeline(sigma, 3); err != nil {
			t.Errorf("sigma %v: %v", sigma, err)
		}
	}
}

// verifyShadowedPipeline runs FDD end-to-end on a shadowed scenario and
// verifies the schedule.
func verifyShadowedPipeline(sigma float64, seed int64) error {
	s, err := shadowedGridScenario(5000, sigma, seed)
	if err != nil {
		return err
	}
	imp, res, err := RunProtocol(s, core.FDD, 0, core.DefaultTiming(), 0, seed)
	if err != nil {
		return err
	}
	if imp < 0 {
		return fmt.Errorf("exp: negative improvement %.1f under shadowing", imp)
	}
	want, err := sched.GreedyPhysical(s.Net.Channel, s.Links, s.Demands, sched.ByHeadIDDesc)
	if err != nil {
		return err
	}
	if !res.Schedule.Equal(want) {
		return fmt.Errorf("exp: Theorem 4 equality failed under shadowing sigma=%g", sigma)
	}
	return nil
}
