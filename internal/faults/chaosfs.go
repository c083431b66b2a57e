package faults

import (
	"fmt"
	"sync"

	"repro/internal/stats"
	"repro/internal/wal"
)

// StorageFaultRecord logs one storage fault the ChaosFS injected, so a
// chaos soak can print exactly what it did to the journal.
type StorageFaultRecord struct {
	// Write is the global write-call index the fault landed on.
	Write uint64
	// Kind is the injected fault's spec key (torn, badrecord, enospc).
	Kind string
	// Detail describes what was done (bytes dropped, byte flipped, ...).
	Detail string
}

// ChaosFS wraps a wal.FS and injects storage faults into its write path:
// silently torn writes (a prefix lands, the rest vanishes — the power-loss
// artifact), flipped bytes inside otherwise-successful writes (storage
// corruption), and ENOSPC failures. The schedule is a pure function of
// (seed, write index), so a chaos run replays bit-for-bit. Reads and
// renames pass through untouched: the journal's recovery path is the code
// under test, not the test's own plumbing.
type ChaosFS struct {
	inner wal.FS
	p     Params
	seed  uint64

	mu       sync.Mutex
	writes   uint64
	injected []StorageFaultRecord
}

// NewChaosFS wraps inner with the storage-fault kinds of p (other kinds
// are ignored) under the given seed.
func NewChaosFS(inner wal.FS, p Params, seed uint64) *ChaosFS {
	return &ChaosFS{inner: inner, p: p.Storage(), seed: seed}
}

// Injected returns the log of every storage fault delivered so far.
func (c *ChaosFS) Injected() []StorageFaultRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StorageFaultRecord(nil), c.injected...)
}

// draw decides the fate of one write call and returns the fault plus an
// RNG for fault-shaping decisions (tear point, flip offset).
func (c *ChaosFS) draw(writeIdx uint64) (Fault, *stats.RNG) {
	if !c.p.Enabled() {
		return Fault{}, nil
	}
	rng := stats.NewRNG(c.seed).Split(writeIdx*0x9E3779B1 + 0x57A11)
	u := rng.Float64()
	cum := 0.0
	pp := c.p
	for i, f := range kindFields {
		cum += *f.get(&pp)
		if u < cum {
			return Fault{Kind: Kind(i + 1)}, rng
		}
	}
	return Fault{}, nil
}

// record appends to the injection log (callers hold c.mu).
func (c *ChaosFS) record(writeIdx uint64, kind Kind, detail string) {
	c.injected = append(c.injected, StorageFaultRecord{
		Write: writeIdx, Kind: kind.String(), Detail: detail,
	})
}

// OpenAppend implements wal.FS.
func (c *ChaosFS) OpenAppend(path string) (wal.File, error) {
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, inner: f}, nil
}

// Create implements wal.FS. Created files (recovery temp files) share the
// same fault schedule as appends.
func (c *ChaosFS) Create(path string) (wal.File, error) {
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, inner: f}, nil
}

// ReadFile implements wal.FS (pass-through).
func (c *ChaosFS) ReadFile(path string) ([]byte, error) { return c.inner.ReadFile(path) }

// Rename implements wal.FS (pass-through).
func (c *ChaosFS) Rename(oldpath, newpath string) error { return c.inner.Rename(oldpath, newpath) }

// Remove implements wal.FS (pass-through).
func (c *ChaosFS) Remove(path string) error { return c.inner.Remove(path) }

// chaosFile delivers the per-write fault schedule.
type chaosFile struct {
	fs    *ChaosFS
	inner wal.File
}

// Write implements wal.File, possibly tearing, corrupting, or failing the
// write. Torn and corrupted writes report success — the caller believes
// the data landed, exactly as a crashed kernel or lying disk would have
// it — so only journal *recovery* can catch them.
func (cf *chaosFile) Write(p []byte) (int, error) {
	c := cf.fs
	c.mu.Lock()
	idx := c.writes
	c.writes++
	fault, rng := c.draw(idx)
	switch fault.Kind {
	case TornWrite:
		if len(p) > 0 {
			keep := rng.Intn(len(p))
			c.record(idx, fault.Kind, fmt.Sprintf("wrote %d of %d bytes", keep, len(p)))
			c.mu.Unlock()
			if _, err := cf.inner.Write(p[:keep]); err != nil {
				return 0, err
			}
			return len(p), nil // the torn write lies about success
		}
	case BadRecord:
		if len(p) > 0 {
			mut := append([]byte(nil), p...)
			off := rng.Intn(len(mut))
			mut[off] ^= 0xA5
			c.record(idx, fault.Kind, fmt.Sprintf("flipped byte %d of %d", off, len(mut)))
			c.mu.Unlock()
			if _, err := cf.inner.Write(mut); err != nil {
				return 0, err
			}
			return len(p), nil
		}
	case DiskFull:
		c.record(idx, fault.Kind, fmt.Sprintf("refused %d-byte write", len(p)))
		c.mu.Unlock()
		return 0, fmt.Errorf("faults: injected disk full (write %d): no space left on device", idx)
	}
	c.mu.Unlock()
	return cf.inner.Write(p)
}

// Sync implements wal.File (pass-through).
func (cf *chaosFile) Sync() error { return cf.inner.Sync() }

// Close implements wal.File (pass-through).
func (cf *chaosFile) Close() error { return cf.inner.Close() }
