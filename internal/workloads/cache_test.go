package workloads

import (
	"sync"
	"testing"
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
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCodeCacheCompileErrorNotCached(t *testing.T) {
	c := NewCodeCache()
	bad := Benchmark{Name: "broken", Source: "def run(:\n"}
	if _, _, err := c.Get(bad); err == nil {
		t.Fatal("broken source must fail to compile")
	}
	if c.Len() != 0 {
		t.Fatal("failed compiles must not be cached")
	}
}

// TestCodeCacheConcurrentInventory hits the cache from concurrent shards —
// compiles of distinct benchmarks racing repeated counts of the cached
// entries — and relies on the race detector (make verify runs go test
// -race) to prove the map is lock-protected.
func TestCodeCacheConcurrentInventory(t *testing.T) {
	c := NewCodeCache()
	suite := Suite()
	const shards = 8
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < len(suite); i++ {
				b := suite[(shard+i)%len(suite)]
				if _, _, err := c.Get(b); err != nil {
					t.Errorf("shard %d: %v", shard, err)
					return
				}
				if c.Len() == 0 {
					t.Errorf("shard %d: empty cache after a Get", shard)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if c.Len() != len(suite) {
		t.Fatalf("cached %d benchmarks, want %d", c.Len(), len(suite))
	}
}
