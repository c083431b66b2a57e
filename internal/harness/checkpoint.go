package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// CheckpointDir is where a supervised run persists its progress: one
// write-ahead journal per experiment key (see checkpointKey), named by the
// key's digest, so two experiments never share a file and any mix of
// surfaces (pybench -bench, -exp, -suite, the daemon) can share one
// directory. A run resumes the journal its key names, whichever surface
// wrote it. The zero value disables checkpointing.
type CheckpointDir struct {
	// Dir is the existing directory holding the journals ("" = none).
	Dir string
	// FS is the filesystem the journals go through (nil = the real one).
	// The chaos soak passes a fault-injecting FS so storage faults attack
	// the production write path.
	FS wal.FS
}

// checkpointVersion guards the on-disk format. Version 2 keyed progress by
// invocation id instead of arrival order (the since-removed sharded runs
// completed invocations out of order); version 3 made the store a
// CRC-framed write-ahead journal; version 4 writes that journal as
// wal.LineJournal lines, so a binary version-3 journal now recovers as
// damage and the run starts fresh; version 5 adds the opt level and the
// move-elision arm to the key, so a version-4 journal is refused as a
// different experiment; version 6 adds the adaptive stopping rule's
// target, under which the invocation count is a cap. The key never held a
// worker count, so simulating once per experiment needs no new version;
// naming each journal by its key's digest changed no record either, and
// the <bench>_<mode>.ckpt.wal journals of older builds are never opened.
const checkpointVersion = 6

// slotRecord is the complete supervised outcome of one invocation slot:
// its attempt log, its measurement (nil when every attempt failed), and the
// corrupted-sample count its failed attempts quarantined. It is both the
// unit the supervisor aggregates into a Result and the unit a checkpoint
// persists.
type slotRecord struct {
	Index       int
	Log         InvocationLog
	Invocation  *Invocation `json:",omitempty"`
	Quarantined int         `json:",omitempty"`
}

// checkpointKey derives the experiment identity a checkpoint belongs to,
// and so the journal it is kept in: any changed configuration — different
// benchmark, seed, design (adaptive target included), executed stream (opt
// level, move elision), fault model, or retry policy — names another
// journal, so incompatible partial results never mix. The VM option enters
// as its parsed elision bit, so "" and "reg" are one arm.
func checkpointKey(b workloads.Benchmark, opts Options, so SupervisorOptions, faultSeed uint64) (string, error) {
	elide, err := vm.ParseVM(opts.VM)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("v%d|%s|%s|seed=%d|inv=%d|iter=%d|opt=%d|elide=%v|noise=%+v|cost=%+v|counters=%v|freq=%g|maxsteps=%d|wall=%s|faults=%s|fseed=%d|retries=%d|quorum=%d|target=%g",
		checkpointVersion, b.Name, opts.Mode, opts.Seed, opts.Invocations,
		opts.Iterations, opts.Opt, elide, opts.Noise, opts.Cost, opts.WithCounters,
		opts.FreqGHz, opts.MaxStepsPerInvocation, opts.WallBudget,
		so.Faults, faultSeed, so.MaxRetries, so.Quorum, opts.TargetRelHalfWidth), nil
}

// journalEntry is one checkpoint journal record. Record zero carries the
// experiment key; every later record is one completed slot (a re-completed
// index supersedes earlier records, so replay keeps the last).
type journalEntry struct {
	Key  string      `json:",omitempty"`
	Slot *slotRecord `json:",omitempty"`
}

// checkpoint is one experiment's open journal. Persisting a completed
// invocation is a single fsynced append; kill -9 at any byte offset loses
// at most the record being written, and recovery truncates the torn tail,
// discards anything that fails its checksum, and resumes from every intact
// slot.
type checkpoint struct {
	jn      *wal.LineJournal
	key     string
	started bool // the key record is on disk
	slots   map[int]slotRecord
	report  wal.RecoveryReport
}

// openCheckpoint recovers the journal of the experiment key inside cd,
// named by the first 16 bytes of the key's SHA-256, and replays its slots.
// The key record comes first in every journal, and a journal whose key
// record is not key is refused.
func openCheckpoint(cd CheckpointDir, key string) (*checkpoint, error) {
	fsys := cd.FS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	sum := sha256.Sum256([]byte(key))
	path := filepath.Join(cd.Dir, hex.EncodeToString(sum[:16])+".ckpt.wal")
	jn, records, report, err := wal.OpenLines(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("opening checkpoint journal: %w", err)
	}
	c := &checkpoint{jn: jn, key: key, started: len(records) > 0,
		slots: map[int]slotRecord{}, report: report}
	for i, rec := range records {
		var e journalEntry
		err := json.Unmarshal(rec, &e)
		switch {
		case err != nil:
			err = fmt.Errorf("decoding checkpoint journal record %d: %w", i, err)
		case i == 0 && e.Key != key:
			err = fmt.Errorf("checkpoint %s belongs to a different experiment (saved %q, running %q); delete it",
				path, e.Key, key)
		case i > 0 && e.Slot != nil:
			c.slots[e.Slot.Index] = *e.Slot
		}
		if err != nil {
			//benchlint:allow uncheckederr — the refusal is the error that matters
			jn.Close()
			return nil, err
		}
	}
	return c, nil
}

// append durably records one completed slot, preceded by the key record
// on the journal's first append.
func (c *checkpoint) append(slot slotRecord) error {
	if !c.started {
		if err := c.write(journalEntry{Key: c.key}); err != nil {
			return err
		}
		c.started = true
	}
	return c.write(journalEntry{Slot: &slot})
}

func (c *checkpoint) write(e journalEntry) error {
	rec, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return c.jn.Append(rec)
}
