package controlapi

import (
	"runtime"
	"testing"
)

// TestExecuteKeepsNoCompiledProgram runs 50 campaigns through Execute with
// no runner. Each compiles its programs into a private runner that dies
// with the campaign, and nothing else may keep them: a process-wide cache
// of lowered code would hold every campaign's code trees. The live heap
// after the last campaign must be within 256 KiB of the live heap after
// the first ten.
func TestExecuteKeepsNoCompiledProgram(t *testing.T) {
	spec := CampaignSpec{Benchmarks: []string{"nbody", "richards", "deltablue"}, Invocations: 1, Iterations: 2, Seed: 42, Noise: "quiet"}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var base int64
	for i := 0; i < 50; i++ {
		if i == 10 {
			base = live()
		}
		if _, err := Execute(spec, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	grown := live() - base
	t.Logf("live heap grew %d bytes over 40 campaigns", grown)
	if grown > 256<<10 {
		t.Fatalf("live heap grew %d bytes over 40 campaigns: their compiled programs are still reachable", grown)
	}
}
