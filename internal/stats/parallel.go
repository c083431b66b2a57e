package stats

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines that the package's fan-outs
// (ParallelFor and the hierarchical bootstrap's chunks) are running, in
// the whole process. It is their one CPU budget: the cores are a
// process-wide resource, so a nested or concurrent fan-out finds them busy
// and runs inline instead of piling goroutines onto them.
var helpers atomic.Int32

// acquireHelper claims a helper slot if a core is spare: if helpers + 1 <
// GOMAXPROCS. A claimed slot is given back with helpers.Add(-1) when the
// helper returns.
func acquireHelper() bool {
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		h := helpers.Load()
		if h+1 >= procs {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// ParallelFor calls f(i) once for every i in [0, n) and returns when every
// call has returned. The calling goroutine runs f itself; when it starts,
// ParallelFor also starts one helper goroutine per spare core, up to n-1,
// from the budget above. So with one P, inside another fan-out's f, or
// while the cores are busy, it is a plain loop on the caller.
//
// The caller and the helpers take the indices in turn, so which goroutine
// runs f(i) is not fixed: f may run concurrently with itself and must not
// share mutable state between indices. A result that f derives from i
// alone, combined by the caller in index order, is then the same bits at
// any helper count. A helper's panic is re-raised on the caller once every
// call has returned.
func ParallelFor(n int, f func(i int)) {
	if n < 2 || !acquireHelper() {
		for i := range n {
			f(i)
		}
		return
	}
	l := &parallelLoop{n: n, f: f}
	for started := 1; ; started++ {
		l.wg.Add(1)
		go l.help()
		if started == n-1 || !acquireHelper() {
			break
		}
	}
	defer l.wait() // also when f panics on the caller
	l.run()
}

// parallelLoop is the state one ParallelFor call shares with its helpers.
type parallelLoop struct {
	n     int
	f     func(int)
	next  atomic.Int64 // the next index to claim
	wg    sync.WaitGroup
	once  sync.Once
	fault any // the first helper panic
}

// run calls f on indices claimed in turn until none is left.
func (l *parallelLoop) run() {
	for i := int(l.next.Add(1) - 1); i < l.n; i = int(l.next.Add(1) - 1) {
		l.f(i)
	}
}

// help is a helper goroutine: it gives its slot back before it is done,
// so that a fan-out after this ParallelFor finds the core spare.
func (l *parallelLoop) help() {
	defer l.wg.Done()
	defer helpers.Add(-1)
	defer func() {
		if p := recover(); p != nil {
			l.once.Do(func() { l.fault = p })
		}
	}()
	l.run()
}

// wait returns once every helper has returned, and re-raises a helper's
// panic on the caller.
func (l *parallelLoop) wait() {
	l.wg.Wait()
	if l.fault != nil {
		panic(l.fault)
	}
}
