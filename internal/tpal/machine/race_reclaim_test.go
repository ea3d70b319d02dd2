package machine

import (
	"runtime"
	"testing"
	"time"
)

// TestShadowReclaim checks that the sanitizer's shadow map does not pin
// dead stacks: once the program drops its last reference to a shadowed
// stack, the finalizer-fed dead list lets the next shadow access delete
// its entry, so long runs that churn stacks keep shadow memory bounded
// by the live set.
func TestShadowReclaim(t *testing.T) {
	rs := newRaceState()
	for i := 0; i < 8; i++ {
		rs.cell(NewStack(), 3)
	}
	keep := NewStack()
	rs.cell(keep, 0)

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		rs.cell(keep, 0) // reaps any queued dead entries
		if len(rs.shadows) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow entries for dead stacks never reclaimed: %d entries left", len(rs.shadows))
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(keep)
}
