package workloads

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/minipy"
)

// Compiled pairs a workload's verified bytecode with its static-analysis
// digest, both computed once per benchmark and cached together.
type Compiled struct {
	Code     *minipy.Code
	Analysis *analysis.Summary
}

// CodeCache is a concurrency-safe compile-once cache. A runner shared by
// concurrent experiments hands them one cache: reads take a shared lock,
// the first compile of a benchmark takes the exclusive lock, and the
// inventory listing is served under the same lock discipline — iterating
// the map without it is a data race the moment experiments run
// concurrently.
type CodeCache struct {
	mu      sync.RWMutex
	entries map[string]Compiled
}

// NewCodeCache returns an empty cache.
func NewCodeCache() *CodeCache {
	return &CodeCache{entries: map[string]Compiled{}}
}

// Get returns the compiled entry for b, compiling and analyzing it on first
// use. hit reports whether the entry was already cached. Concurrent callers
// of the same uncompiled benchmark serialize on the first compile; callers
// of cached benchmarks only share a read lock.
func (c *CodeCache) Get(b Benchmark) (entry Compiled, hit bool, err error) {
	c.mu.RLock()
	entry, hit = c.entries[b.Name]
	c.mu.RUnlock()
	if hit {
		return entry, true, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if entry, hit = c.entries[b.Name]; hit {
		return entry, true, nil
	}
	code, rep, err := b.compile()
	if err != nil {
		return Compiled{}, false, err
	}
	entry = Compiled{Code: code, Analysis: rep.Summarize()}
	c.entries[b.Name] = entry
	return entry, false, nil
}

// GetOpt returns the compiled entry for b at bytecode-optimization level
// opt (see minipy.Optimize). Level <= 0 is the plain entry. Optimized
// entries are cached under a level-qualified key and share the base entry's
// analysis summary — the summary describes the source program, which the
// optimizer does not change observably. The base code object is never
// mutated: every experiment arm holding a Compiled from Get still sees the
// compiler's output.
func (c *CodeCache) GetOpt(b Benchmark, opt int) (entry Compiled, hit bool, err error) {
	if opt <= 0 {
		return c.Get(b)
	}
	key := fmt.Sprintf("%s#opt%d", b.Name, opt)
	c.mu.RLock()
	entry, hit = c.entries[key]
	c.mu.RUnlock()
	if hit {
		return entry, true, nil
	}
	base, _, err := c.Get(b)
	if err != nil {
		return Compiled{}, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if entry, hit = c.entries[key]; hit {
		return entry, true, nil
	}
	facts := analysis.OptimizationFacts(base.Code)
	oc, err := minipy.Optimize(base.Code, opt, facts)
	if err != nil {
		return Compiled{}, false, fmt.Errorf("workload %s: optimize level %d: %w", b.Name, opt, err)
	}
	entry = Compiled{Code: oc, Analysis: base.Analysis}
	c.entries[key] = entry
	return entry, false, nil
}
