package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
)

// LineJournal is the append-only journal: its records are CRC32C-framed
// *JSON lines*, so the file is valid JSONL (one JSON object per line),
// git-diffable, and greppable while keeping a crash-only recovery
// contract. It backs the supervisor's checkpoints (*.ckpt.wal) and the
// daemon's ledger (ledger.wal), each of which must survive a crash
// mid-append.
//
// Each line is the envelope
//
//	{"crc32c":"<8 hex>","rec":<payload>}\n
//
// where the checksum covers the payload bytes verbatim. Recovery
// distinguishes two damage shapes: an unterminated final line is a torn
// tail (the normal crash artifact — truncated silently and reported),
// while a damaged complete line is corruption: that record and everything
// after it are discarded and reported loudly.
type LineJournal struct {
	fsys FS
	path string
	f    File
}

// linePrefix/lineInfix/lineSuffix frame one payload into a JSON envelope.
const (
	linePrefix = `{"crc32c":"`
	lineInfix  = `","rec":`
	lineSuffix = "}\n"
)

// encodeLine frames one payload as a single envelope line.
func encodeLine(payload []byte) []byte {
	sum := crc32.Checksum(payload, castagnoli)
	buf := make([]byte, 0, len(linePrefix)+8+len(lineInfix)+len(payload)+len(lineSuffix))
	buf = append(buf, linePrefix...)
	buf = append(buf, fmt.Sprintf("%08x", sum)...)
	buf = append(buf, lineInfix...)
	buf = append(buf, payload...)
	buf = append(buf, lineSuffix...)
	return buf
}

// decodeLine parses one envelope line (without its trailing newline) and
// returns the verified payload, or an error unless the line is exactly
// what encodeLine writes for that payload: framing, lower-case checksum
// hex and all.
func decodeLine(line []byte) ([]byte, error) {
	head := len(linePrefix) + 8 + len(lineInfix)
	if len(line) < head+1 {
		return nil, errors.New("wal: line too short for envelope")
	}
	payload := line[head : len(line)-1]
	if enc := encodeLine(payload); !bytes.Equal(enc[:len(enc)-1], line) {
		return nil, errors.New("wal: line is not the envelope of its payload")
	}
	return payload, nil
}

// decodeAllLines walks the file and returns every intact payload, the byte
// length of the trusted prefix, and the recovery report, classifying damage
// with the journal taxonomy (torn tail vs. corrupt record).
func decodeAllLines(data []byte) (payloads [][]byte, goodLen int, rep RecoveryReport) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated tail: the single-write append was interrupted
			// before its final byte landed. Crash artifact, not corruption.
			rep.TornTailBytes = len(data) - off
			return payloads, off, rep
		}
		payload, err := decodeLine(data[off : off+nl])
		if err != nil {
			// A *complete* line that fails framing or CRC is corruption:
			// discard it and everything after (framing downstream of damage
			// is no longer trustworthy evidence of what was written).
			rep.CorruptRecords = 1 + countParseableLines(data[off+nl+1:])
			rep.DiscardedBytes = len(data) - off
			return payloads, off, rep
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		rep.Records++
		off += nl + 1
	}
	return payloads, off, rep
}

// countParseableLines estimates how many complete, well-formed lines follow
// a corrupt one. Best effort — it only feeds the recovery report.
func countParseableLines(data []byte) int {
	count := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return count
		}
		if _, err := decodeLine(data[:nl]); err != nil {
			return count
		}
		count++
		data = data[nl+1:]
	}
	return count
}

// OpenLines recovers the line journal at path (absent = empty) and
// positions it for appending. Any torn tail or corruption is repaired on
// disk (atomic truncation to the trusted prefix) before the journal is
// handed back, so a second crash during recovery still leaves a
// well-formed file.
func OpenLines(fsys FS, path string) (*LineJournal, [][]byte, RecoveryReport, error) {
	j := &LineJournal{fsys: fsys, path: path}
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, RecoveryReport{}, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	payloads, goodLen, rep := decodeAllLines(data)
	if goodLen < len(data) {
		if err := AtomicRewrite(fsys, path, data[:goodLen]); err != nil {
			return nil, nil, rep, fmt.Errorf("wal: truncating damaged journal %s: %w", path, err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, rep, fmt.Errorf("wal: opening %s for append: %w", path, err)
	}
	j.f = f
	return j, payloads, rep, nil
}

// AtomicRewrite replaces path with raw via temp file + fsync + rename, so
// a crash mid-write leaves either the old file or the new one, never a
// half-written one. Journal repair and the daemon's result documents use
// it.
func AtomicRewrite(fsys FS, path string, raw []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		//benchlint:allow uncheckederr — cleanup; the write error wins
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		//benchlint:allow uncheckederr — cleanup; the sync error wins
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// Append durably appends one payload as a framed line: a single write of
// the envelope followed by fsync. The payload must be newline-free (one
// record, one line — compact JSON satisfies this by construction).
func (j *LineJournal) Append(payload []byte) error {
	if j.f == nil {
		return errors.New("wal: line journal is closed")
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", len(payload))
	}
	if bytes.ContainsAny(payload, "\n\r") {
		return errors.New("wal: line journal payload must not contain newlines")
	}
	if _, err := j.f.Write(encodeLine(payload)); err != nil {
		return fmt.Errorf("wal: appending to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", j.path, err)
	}
	return nil
}

// Close releases the append handle. The journal on disk stays valid.
func (j *LineJournal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
