package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestConstantDelay(t *testing.T) {
	d := ConstantDelay{D: 5 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := d.Delay(0, 1, 0, rng); got != 5*time.Millisecond {
			t.Fatalf("delay = %v", got)
		}
	}
}

func TestUniformDelayRange(t *testing.T) {
	d := UniformDelay{Min: 2 * time.Millisecond, Max: 8 * time.Millisecond}
	rng := rand.New(rand.NewSource(2))
	seenLow, seenHigh := false, false
	for i := 0; i < 2000; i++ {
		got := d.Delay(0, 1, 0, rng)
		if got < d.Min || got > d.Max {
			t.Fatalf("delay %v outside [%v, %v]", got, d.Min, d.Max)
		}
		if got < 4*time.Millisecond {
			seenLow = true
		}
		if got > 6*time.Millisecond {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Error("uniform delays not spread across the range")
	}
}

func TestUniformDelayDegenerate(t *testing.T) {
	d := UniformDelay{Min: 3 * time.Millisecond, Max: 3 * time.Millisecond}
	rng := rand.New(rand.NewSource(3))
	if got := d.Delay(0, 1, 0, rng); got != 3*time.Millisecond {
		t.Errorf("degenerate uniform = %v", got)
	}
}

func TestExponentialDelayCapped(t *testing.T) {
	d := ExponentialDelay{Mean: time.Millisecond, Cap: 2 * time.Millisecond}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		if got := d.Delay(0, 1, 0, rng); got > 2*time.Millisecond {
			t.Fatalf("delay %v exceeds cap", got)
		}
	}
	// Default cap is 10× mean.
	d2 := ExponentialDelay{Mean: time.Millisecond}
	for i := 0; i < 2000; i++ {
		if got := d2.Delay(0, 1, 0, rng); got > 10*time.Millisecond {
			t.Fatalf("delay %v exceeds default cap", got)
		}
	}
}

func TestStarveSendersOnlyAffectsSet(t *testing.T) {
	d := StarveSenders{
		Inner: ConstantDelay{D: time.Millisecond},
		Slow:  map[ProcID]bool{2: true},
		Extra: time.Second,
	}
	rng := rand.New(rand.NewSource(5))
	if got := d.Delay(2, 0, 0, rng); got != time.Second+time.Millisecond {
		t.Errorf("starved sender delay = %v", got)
	}
	if got := d.Delay(0, 2, 0, rng); got != time.Millisecond {
		t.Errorf("messages *to* a starved sender must be unaffected: %v", got)
	}
	if got := d.Delay(1, 0, 0, rng); got != time.Millisecond {
		t.Errorf("unstarved sender delay = %v", got)
	}
}

// TestShiftedExponentialFloorHolds: no draw undercuts Floor, even with a
// Cap below it.
func TestShiftedExponentialFloorHolds(t *testing.T) {
	d := ShiftedExponentialDelay{Floor: 2 * time.Millisecond, TailMean: 5 * time.Millisecond, Cap: time.Millisecond}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10000; i++ {
		if got := d.Delay(0, 1, 0, rng); got < d.Floor {
			t.Fatalf("draw %d: delay %v under floor %v", i, got, d.Floor)
		}
	}
}
