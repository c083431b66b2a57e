package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLineAppendAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	recs := testRecords(5)
	writeJournal(t, path, recs)

	j, got, rep, err := OpenLines(OSFS{}, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if !rep.Clean() || rep.Records != 5 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch: got %q want %q", i, got[i], recs[i])
		}
	}
}

// The file must stay valid JSONL: every line a standalone JSON object.
func TestLineJournalIsValidJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	writeJournal(t, path, testRecords(4))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, `{"crc32c":"`) || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is not an envelope object: %q", i, line)
		}
	}
}

func TestLineAppendRejectsNewlines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	j, _, _, err := OpenLines(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("{\n}")); err == nil {
		t.Fatal("Append accepted a payload containing a newline")
	}
}

// A torn tail at every byte offset must recover the longest intact prefix
// of whole lines, truncate the tail on disk, and report the damage, and a
// cut on a line boundary must be reported clean.
func TestLineTornTailTruncationAtEveryOffset(t *testing.T) {
	recs := testRecords(4)
	var full []byte
	for _, r := range recs {
		full = append(full, encodeLine(r)...)
	}
	lineEnds := []int{}
	off := 0
	for _, r := range recs {
		off += len(encodeLine(r))
		lineEnds = append(lineEnds, off)
	}
	wholeLines := func(n int) int {
		count := 0
		for _, e := range lineEnds {
			if e <= n {
				count++
			}
		}
		return count
	}
	for cut := 0; cut < len(full); cut++ {
		path := filepath.Join(t.TempDir(), "torn.jsonl")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, got, rep, err := OpenLines(OSFS{}, path)
		if err != nil {
			t.Fatalf("cut %d: OpenLines: %v", cut, err)
		}
		want := wholeLines(cut)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		atBoundary := cut == 0 || (want > 0 && cut == lineEnds[want-1])
		if atBoundary && !rep.Clean() {
			t.Fatalf("cut %d: boundary cut reported damage: %+v", cut, rep)
		}
		if !atBoundary && rep.TornTailBytes == 0 {
			t.Fatalf("cut %d: torn tail not reported: %+v", cut, rep)
		}
		// The repair must leave a journal that reopens clean with the same
		// records.
		j.Close()
		j2, got2, rep2, err := OpenLines(OSFS{}, path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if !rep2.Clean() {
			t.Fatalf("cut %d: second open not clean: %+v", cut, rep2)
		}
		if len(got2) != want {
			t.Fatalf("cut %d: second open recovered %d, want %d", cut, len(got2), want)
		}
		j2.Close()
	}
}

// A complete line damaged in the middle of the file is corruption, not a
// crash artifact: it and everything after must be discarded and reported.
func TestLineCorruptMiddleRecordIsReportedLoudly(t *testing.T) {
	recs := testRecords(5)
	var full []byte
	var offsets []int
	for _, r := range recs {
		offsets = append(offsets, len(full))
		full = append(full, encodeLine(r)...)
	}
	// Flip one payload byte inside record 2 (past its CRC header).
	damaged := append([]byte(nil), full...)
	damaged[offsets[2]+len(linePrefix)+8+len(lineInfix)+3] ^= 0x41

	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, rep, err := OpenLines(OSFS{}, path)
	if err != nil {
		t.Fatalf("OpenLines: %v", err)
	}
	defer j.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	if rep.CorruptRecords != 3 { // the damaged line + the 2 intact ones after it
		t.Fatalf("CorruptRecords = %d, want 3 (report: %+v)", rep.CorruptRecords, rep)
	}
	if rep.DiscardedBytes == 0 || rep.Clean() {
		t.Fatalf("corruption not reported: %+v", rep)
	}
}

// Appending after a recovery must produce a well-formed journal again.
func TestLineAppendAfterTornRecovery(t *testing.T) {
	recs := testRecords(3)
	var full []byte
	for _, r := range recs {
		full = append(full, encodeLine(r)...)
	}
	path := filepath.Join(t.TempDir(), "resume.jsonl")
	if err := os.WriteFile(path, full[:len(full)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, rep, err := OpenLines(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || rep.TornTailBytes == 0 {
		t.Fatalf("recovery: got %d records, report %+v", len(got), rep)
	}
	extra := []byte(fmt.Sprintf(`{"slot":%d}`, 99))
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got2, rep2, err := OpenLines(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || len(got2) != 3 {
		t.Fatalf("after repair+append: %d records, report %+v", len(got2), rep2)
	}
	if !bytes.Equal(got2[2], extra) {
		t.Fatalf("appended record mismatch: %q", got2[2])
	}
}
