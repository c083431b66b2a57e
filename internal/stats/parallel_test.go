package stats

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelForBudget runs ParallelFor three deep and checks that every
// index of every call runs exactly once, that no more innermost bodies run
// at once than GOMAXPROCS allows, and that every helper slot is given back.
func TestParallelForBudget(t *testing.T) {
	procs := int32(runtime.GOMAXPROCS(0))
	var running, peak atomic.Int32
	for _, n := range []int{0, 1, 2, 3, 7} {
		calls := make([]atomic.Int32, n*n*n)
		ParallelFor(n, func(i int) {
			ParallelFor(n, func(j int) {
				ParallelFor(n, func(k int) {
					now := running.Add(1)
					for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
					}
					calls[(i*n+j)*n+k].Add(1)
					for range 200 { // overlap with the other goroutines' bodies
						runtime.Gosched()
						if running.Load() >= procs {
							break
						}
					}
					running.Add(-1)
				})
			})
		})
		for c := range calls {
			if got := calls[c].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, c, got)
			}
		}
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("%d bodies ran at once with GOMAXPROCS %d", p, procs)
	}
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helper slots still held after every ParallelFor returned", h)
	}
}

// TestParallelForRaisesPanic checks that a panic in f reaches the caller,
// whichever goroutine ran the index, once every call that started has
// returned, and that the helpers give their slots back.
func TestParallelForRaisesPanic(t *testing.T) {
	for _, bad := range []int{0, 5, 63} {
		var started, returned atomic.Int32
		func() {
			defer func() {
				if p := recover(); p != bad {
					t.Fatalf("recovered %v, want %d", p, bad)
				}
				if s, r := started.Load(), returned.Load(); s != r {
					t.Fatalf("panic at %d: %d calls started, %d returned when the caller saw it", bad, s, r)
				}
			}()
			ParallelFor(64, func(i int) {
				started.Add(1)
				defer returned.Add(1)
				if i == bad {
					panic(bad)
				}
			})
		}()
		if h := helpers.Load(); h != 0 {
			t.Fatalf("panic at %d: %d helper slots still held", bad, h)
		}
	}
}

// claimBudget claims every spare helper slot, so that every fan-out runs
// inline until the returned function gives them back.
func claimBudget() (release func()) {
	held := int32(0)
	for acquireHelper() {
		held++
	}
	return func() { helpers.Add(-held) }
}
