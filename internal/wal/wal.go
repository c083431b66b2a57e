// Package wal implements the crash-safe write-ahead journal that backs the
// supervisor's checkpoints, the daemon's ledger, and the committed perf
// history. The paper's methodology requires that every planned
// invocation's sample either lands intact or is accounted for as
// degradation; a checkpoint layer that can be destroyed by a kill -9
// mid-write silently violates that. The journal is crash-only by design:
//
//   - records are appended as CRC32C-framed JSON lines (see LineJournal),
//     each written with a single write call and fsynced, so a torn write
//     tears at most the final line;
//   - recovery truncates a torn tail (the expected artifact of a crash
//     mid-append) and rewrites the journal to its longest intact prefix
//     via a temp file and atomic rename;
//   - a complete line that fails its framing or CRC is corruption, not a
//     crash artifact: the record and everything after it are discarded,
//     and the event is reported loudly in the RecoveryReport rather than
//     trusted.
//
// All I/O goes through the FS interface so the chaos harness can inject
// torn writes, ENOSPC, and bit flips underneath the exact production
// write path.
package wal

import (
	"fmt"
	"hash/crc32"
)

// MaxRecordSize bounds one record's payload, so a runaway writer cannot
// grow one line without limit.
const MaxRecordSize = 1 << 26

// castagnoli is the CRC32C polynomial table (the checksum used by iSCSI,
// ext4, and most journaling formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecoveryReport documents what OpenLines found in an existing journal. It
// is carried up to Result.Supervision so a resumed experiment's report
// states exactly what storage damage it recovered from.
type RecoveryReport struct {
	// Records is the number of intact records recovered.
	Records int
	// TornTailBytes counts trailing bytes discarded as an interrupted
	// append — the normal artifact of a crash mid-write.
	TornTailBytes int `json:",omitempty"`
	// CorruptRecords counts damaged records found before the tail.
	// Unlike a torn tail this is evidence of storage corruption.
	CorruptRecords int `json:",omitempty"`
	// DiscardedBytes counts the bytes dropped after the first corrupt
	// record (nothing beyond it can be trusted).
	DiscardedBytes int `json:",omitempty"`
}

// Clean reports whether recovery found a pristine journal.
func (r RecoveryReport) Clean() bool {
	return r.TornTailBytes == 0 && r.CorruptRecords == 0 && r.DiscardedBytes == 0
}

// String renders a one-line account suitable as a report footnote.
func (r RecoveryReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("journal: %d record(s), clean", r.Records)
	}
	return fmt.Sprintf("journal: recovered %d record(s); truncated %d torn tail byte(s); discarded %d corrupt record(s) (%d byte(s))",
		r.Records, r.TornTailBytes, r.CorruptRecords, r.DiscardedBytes)
}
