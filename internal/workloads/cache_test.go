package workloads

import (
	"sync"
	"testing"

	"repro/internal/minipy"
)

func TestCodeCacheGetAndInventory(t *testing.T) {
	c := NewCodeCache()
	fib, ok := ByName("fib")
	if !ok {
		t.Fatal("fib missing")
	}
	e1, hit, err := c.Get(fib)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Get must be a miss")
	}
	if e1.Code == nil || e1.Analysis == nil {
		t.Fatal("entry must carry code and analysis digest")
	}
	e2, hit, err := c.Get(fib)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second Get must hit")
	}
	if e2.Code != e1.Code {
		t.Fatal("hit must return the cached code object")
	}
	nbody, ok := ByName("nbody")
	if !ok {
		t.Fatal("nbody missing")
	}
	e3, hit, err := c.Get(nbody)
	if err != nil {
		t.Fatal(err)
	}
	if hit || e3.Code == e1.Code {
		t.Fatal("each benchmark must get its own entry")
	}
}

func TestCodeCacheCompileErrorNotCached(t *testing.T) {
	c := NewCodeCache()
	bad := Benchmark{Name: "broken", Source: "def run(:\n"}
	if _, _, err := c.Get(bad); err == nil {
		t.Fatal("broken source must fail to compile")
	}
	fixed := Benchmark{Name: "broken", Source: "def run():\n    return 1\n"}
	if _, hit, err := c.Get(fixed); err != nil || hit {
		t.Fatalf("failed compiles must not be cached: hit=%v err=%v", hit, err)
	}
}

// TestCodeCacheConcurrentInventory hits the cache from concurrent shards,
// compiles of distinct benchmarks racing hits on the cached entries, and
// relies on the race detector (make verify runs go test -race) to prove
// the map is lock-protected. Every shard must get the one code object
// compiled for each benchmark.
func TestCodeCacheConcurrentInventory(t *testing.T) {
	c := NewCodeCache()
	suite := Suite()
	const shards = 8
	got := make([][]*minipy.Code, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		got[s] = make([]*minipy.Code, len(suite))
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < len(suite); i++ {
				k := (shard + i) % len(suite)
				e, _, err := c.Get(suite[k])
				if err != nil {
					t.Errorf("shard %d: %v", shard, err)
					return
				}
				got[shard][k] = e.Code
			}
		}(s)
	}
	wg.Wait()
	for k, b := range suite {
		e, hit, err := c.Get(b)
		if err != nil || !hit {
			t.Fatalf("%s: hit=%v err=%v after every shard compiled it", b.Name, hit, err)
		}
		for s := range got {
			if got[s][k] != e.Code {
				t.Fatalf("%s: shard %d got a different code object", b.Name, s)
			}
		}
	}
}
