package scream

import "testing"

// TestSchedulerByName: every listed scheduler resolves to its own entry, and
// an unknown name fails with an error that lists every valid name, the text
// screamd and flowsim show their callers.
func TestSchedulerByName(t *testing.T) {
	for _, want := range Schedulers() {
		got, err := SchedulerByName(want.Name)
		if err != nil || got != want {
			t.Errorf("SchedulerByName(%q) = %+v, %v; want %+v", want.Name, got, err, want)
		}
	}
	const want = `scream: flow: unknown scheduler "astrology" (valid: fanzhang, fdd, greedy, maxweight, pdd, tdma)`
	if _, err := SchedulerByName("astrology"); err == nil || err.Error() != want {
		t.Errorf("unknown scheduler: error %v, want %q", err, want)
	}
}
