package exp

// Shape and headline pins for the multi-channel figure: channels must buy
// strictly shorter schedules for every scheduler and strictly higher
// delivered goodput under saturating load (worker determinism is covered by
// TestEngineDeterminism).

import "testing"

func TestFigChannelsShapeAndMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dynamic traffic simulations")
	}
	fig, err := FigChannels(Options{Quick: true, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := ChannelCounts(true)
	names := channelsCurveNames()
	if len(fig.Series) != len(names) {
		t.Fatalf("got %d series, want %d", len(fig.Series), len(names))
	}
	for si, name := range names {
		s := lookup(fig, name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		if len(s.Points) != len(counts) {
			t.Fatalf("%s: %d points for %d channel counts", name, len(s.Points), len(counts))
		}
		goodput := si < 4 // first four series are goodput, rest schedule length
		for i := 1; i < len(s.Points); i++ {
			prev, cur := s.Points[i-1].Y, s.Points[i].Y
			if goodput && cur <= prev {
				t.Errorf("%s: goodput not strictly increasing with channels: %.1f -> %.1f at C=%d",
					name, prev, cur, counts[i])
			}
			if !goodput && cur >= prev {
				t.Errorf("%s: schedule length not strictly decreasing with channels: %.0f -> %.0f at C=%d",
					name, prev, cur, counts[i])
			}
		}
	}
}
