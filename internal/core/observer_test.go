package core

import (
	"math/rand"
	"testing"

	"scream/internal/phys"
)

func TestTransitionLegal(t *testing.T) {
	legal := []struct{ from, to State }{
		{Dormant, Active}, {Dormant, Control},
		{Active, Allocated}, {Active, Tried},
		{Allocated, Dormant}, {Allocated, Complete},
		{Tried, Dormant},
		{Control, Complete},
		{Complete, Terminate},
	}
	for _, tr := range legal {
		if !transitionLegal(tr.from, tr.to) {
			t.Errorf("%v -> %v should be legal", tr.from, tr.to)
		}
	}
	illegal := []struct{ from, to State }{
		{Dormant, Allocated}, {Dormant, Complete},
		{Active, Dormant}, {Active, Control},
		{Tried, Allocated}, {Tried, Active},
		{Control, Dormant}, {Control, Active},
		{Complete, Dormant}, {Complete, Control},
		{Terminate, Dormant},
		{State(99), Dormant},
	}
	for _, tr := range illegal {
		if transitionLegal(tr.from, tr.to) {
			t.Errorf("%v -> %v should be illegal", tr.from, tr.to)
		}
	}
}

// TestObserverTransitionsMatchFigure1 runs both protocols with a tracing
// observer and asserts that every state transition the engine performs is an
// edge of the paper's Figure 1 state machine.
func TestObserverTransitionsMatchFigure1(t *testing.T) {
	for _, variant := range []Variant{FDD, PDD} {
		fx := gridFixture(t, 5, 61)
		var transitions int
		var sealed int
		var elected int
		obs := Observer{
			ControllerElected: func(round, node int) { elected++ },
			StateChange: func(round, node int, from, to State) {
				transitions++
				if !transitionLegal(from, to) {
					t.Fatalf("%v: illegal transition %v -> %v at node %d round %d", variant, from, to, node, round)
				}
			},
			SlotSealed: func(round int, links []phys.Link) {
				sealed++
				if len(links) == 0 {
					t.Fatalf("%v: sealed an empty slot at round %d", variant, round)
				}
			},
		}
		cfg := Config{
			Variant:  variant,
			Links:    fx.links,
			Demands:  fx.demands,
			Backend:  fx.backend(t, 0, false),
			Observer: obs,
		}
		if variant == PDD {
			cfg.Probability = 0.5
			cfg.RNG = rand.New(rand.NewSource(62))
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sealed != res.Rounds {
			t.Errorf("%v: %d sealed slots for %d rounds", variant, sealed, res.Rounds)
		}
		if elected == 0 || transitions == 0 {
			t.Errorf("%v: observer saw %d elections, %d transitions", variant, elected, transitions)
		}
	}
}

// TestObserverSlotContentsMatchSchedule cross-checks the sealed-slot events
// against the returned schedule.
func TestObserverSlotContentsMatchSchedule(t *testing.T) {
	fx := gridFixture(t, 4, 63)
	var slots [][]phys.Link
	cfg := Config{
		Variant: FDD,
		Links:   fx.links,
		Demands: fx.demands,
		Backend: fx.backend(t, 0, false),
		Observer: Observer{
			SlotSealed: func(round int, links []phys.Link) {
				cp := make([]phys.Link, len(links))
				copy(cp, links)
				slots = append(slots, cp)
			},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != res.Schedule.Length() {
		t.Fatalf("observer saw %d slots, schedule has %d", len(slots), res.Schedule.Length())
	}
	for i, slot := range slots {
		got := res.Schedule.Slot(i)
		if len(got) != len(slot) {
			t.Fatalf("slot %d: observer %v vs schedule %v", i, slot, got)
		}
	}
}

// TestControllerIsHighestIDNonComplete verifies the FDD controller choice
// round by round via the observer.
func TestControllerIsHighestIDNonComplete(t *testing.T) {
	fx := gridFixture(t, 4, 64)
	remaining := make(map[int]int)
	for i, l := range fx.links {
		remaining[l.From] = fx.demands[i]
	}
	prevController := -1
	cfg := Config{
		Variant: FDD,
		Links:   fx.links,
		Demands: fx.demands,
		Backend: fx.backend(t, 0, false),
		Observer: Observer{
			ControllerElected: func(round, node int) {
				// The new controller must be the highest-ID node that
				// still has pending demand.
				want := -1
				for u, d := range remaining {
					if d > 0 && u > want {
						want = u
					}
				}
				if node != want {
					t.Fatalf("round %d: controller %d, want %d", round, node, want)
				}
				prevController = node
			},
			SlotSealed: func(round int, links []phys.Link) {
				for _, l := range links {
					remaining[l.From]--
				}
			},
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if prevController < 0 {
		t.Fatal("no controller was ever elected")
	}
}

// transitionLegal reports whether a node state transition is allowed by the
// protocol's state machine (Figure 1, plus the per-slot reset edges that
// the figure draws as "new slot considered").
func transitionLegal(from, to State) bool {
	switch from {
	case Dormant:
		return to == Active || to == Control
	case Active:
		return to == Allocated || to == Tried
	case Allocated:
		return to == Dormant || to == Complete
	case Tried:
		return to == Dormant
	case Control:
		return to == Complete
	case Complete:
		return to == Terminate
	default:
		return false
	}
}
