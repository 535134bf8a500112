package core

// Tests for the protocol loop at more than one channel: both FDD and PDD
// must produce VerifyMulti-feasible channel-assigned schedules that serve the
// full demand, added channels must shorten the schedule on a contended mesh,
// NumChannels <= 1 must be the single-channel protocol whatever the radio
// count, and every step must trace one handshake at every channel count.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scream/internal/obs"
)

func runChannels(t *testing.T, fx *fixture, variant Variant, channels, radios int, seed int64) *Result {
	t.Helper()
	cfg := Config{
		Variant:     variant,
		Links:       fx.links,
		Demands:     fx.demands,
		Backend:     fx.backend(t, 0, false),
		NumChannels: channels,
		NumRadios:   radios,
	}
	if variant == PDD {
		cfg.Probability = 0.6
		cfg.RNG = rand.New(rand.NewSource(seed))
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%v C=%d R=%d: %v", variant, channels, radios, err)
	}
	return res
}

func TestRunMultiChannelFeasibleAndShorter(t *testing.T) {
	fx := gridFixture(t, 6, 11)
	for _, variant := range []Variant{FDD, PDD} {
		single := runChannels(t, fx, variant, 1, 1, 1)
		if err := single.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
			t.Fatalf("%v single-channel: %v", variant, err)
		}
		prev := single.Schedule.Length()
		for _, c := range []int{2, 4} {
			res := runChannels(t, fx, variant, c, 2, 1)
			if err := res.Schedule.VerifyMulti(fx.net.Channel, c, 2, fx.links, fx.demands); err != nil {
				t.Fatalf("%v C=%d: %v", variant, c, err)
			}
			if got := res.Schedule.NumChannelsUsed(); got > c {
				t.Fatalf("%v C=%d: schedule uses %d channels", variant, c, got)
			}
			if res.Schedule.Length() >= prev {
				t.Fatalf("%v: C=%d schedule (%d slots) not shorter than previous (%d)",
					variant, c, res.Schedule.Length(), prev)
			}
			if res.Rounds != res.Schedule.Length() {
				t.Fatalf("%v C=%d: %d rounds for %d slots", variant, c, res.Rounds, res.Schedule.Length())
			}
			prev = res.Schedule.Length()
		}
	}
}

// TestRunMultiChannelRadioBudgetRespected: with one radio per node, no node
// may appear as an endpoint of two placements in any slot even across
// channels; with two, at most twice.
func TestRunMultiChannelRadioBudgetRespected(t *testing.T) {
	fx := gridFixture(t, 5, 23)
	for _, radios := range []int{1, 2} {
		res := runChannels(t, fx, FDD, 3, radios, 1)
		s := res.Schedule
		for i := 0; i < s.Length(); i++ {
			count := map[int]int{}
			for _, l := range s.Slot(i) {
				count[l.From]++
				count[l.To]++
			}
			for u, c := range count {
				if c > radios {
					t.Fatalf("radios=%d: slot %d uses node %d %d times: %v", radios, i, u, c, s.Slot(i))
				}
			}
		}
		if err := s.VerifyMulti(fx.net.Channel, 3, radios, fx.links, fx.demands); err != nil {
			t.Fatalf("radios=%d: %v", radios, err)
		}
	}
}

// TestRunMultiChannelSingleIsLegacy: NumChannels 0 and 1 are both one
// channel, where the radio budget cannot bind and is ignored — so every
// radio count must give the same Result (schedule, step and primitive
// counts, execution time) with no channel assignment recorded. Applying the
// radio gate on one channel would discard conflicting actives before their
// handshake instead of during it, and change the step counts.
func TestRunMultiChannelSingleIsLegacy(t *testing.T) {
	fx := gridFixture(t, 5, 31)
	for _, variant := range []Variant{FDD, PDD} {
		legacy := runChannels(t, fx, variant, 0, 1, 1)
		for _, channels := range []int{0, 1} {
			for _, radios := range []int{1, 2, 4} {
				res := runChannels(t, fx, variant, channels, radios, 1)
				if !reflect.DeepEqual(res, legacy) {
					t.Fatalf("%v C=%d R=%d differs from the single-channel run: %d slots, %d steps, %d screams, %v vs %d, %d, %d, %v",
						variant, channels, radios, res.Schedule.Length(), res.Steps, res.Screams, res.ExecTime,
						legacy.Schedule.Length(), legacy.Steps, legacy.Screams, legacy.ExecTime)
				}
				for i := 0; i < res.Schedule.Length(); i++ {
					if res.Schedule.SlotChannels(i) != nil {
						t.Fatalf("%v C=%d R=%d recorded a channel assignment in slot %d", variant, channels, radios, i)
					}
				}
			}
		}
	}
}

// TestRunHandshakeTracedEveryStep: a traced run emits exactly one handshake
// event per greedy augmentation step, at every channel count, and that count
// is the number of handshake slots the backend executed.
func TestRunHandshakeTracedEveryStep(t *testing.T) {
	fx := gridFixture(t, 5, 37)
	for _, variant := range []Variant{FDD, PDD} {
		for _, channels := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/C%d", variant, channels), func(t *testing.T) {
				var buf bytes.Buffer
				tr := obs.NewTracer(&buf)
				b := fx.backend(t, 0, false)
				cfg := Config{
					Variant: variant, Links: fx.links, Demands: fx.demands, Backend: b,
					NumChannels: channels, NumRadios: 2, Trace: tr,
				}
				if variant == PDD {
					cfg.Probability = 0.5
					cfg.RNG = rand.New(rand.NewSource(int64(channels)))
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				events := bytes.Count(buf.Bytes(), []byte(`"ev":"handshake"`))
				if events != res.Steps || events != b.HandshakeCount() {
					t.Fatalf("%d handshake events, %d steps, %d handshake slots executed", events, res.Steps, b.HandshakeCount())
				}
			})
		}
	}
}
