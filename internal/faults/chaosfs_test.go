package faults

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

func TestEnvKindsParseAndPrint(t *testing.T) {
	p, err := Parse("kill=0.2,stall=0.1,torn=0.05,badrecord=0.02,enospc=0.01")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Params{KillProb: 0.2, StallProb: 0.1, TornWriteProb: 0.05,
		BadRecordProb: 0.02, DiskFullProb: 0.01}
	if p != want {
		t.Fatalf("got %+v want %+v", p, want)
	}
	rt, err := Parse(p.String())
	if err != nil || rt != p {
		t.Fatalf("String round-trip: %v / %+v vs %+v", err, rt, p)
	}
}

func TestVMStorageSplitPartitionsTotal(t *testing.T) {
	p := Chaos()
	if got := p.VM().Total() + p.Storage().Total(); got != p.Total() {
		t.Fatalf("VM+Storage = %g, want Total %g", got, p.Total())
	}
	if p.Storage().KillProb != 0 || p.VM().TornWriteProb != 0 {
		t.Fatal("split leaked kinds across layers")
	}
}

// TestLegacySchedulesStableUnderNewKinds pins the append-only contract:
// with the new environment probabilities at zero, the injector draws the
// exact fates it drew before the kinds existed (same cumulative walk).
func TestLegacySchedulesStableUnderNewKinds(t *testing.T) {
	inj := NewInjector(Heavy(), 7)
	for inv := 0; inv < 50; inv++ {
		f := inj.Draw(inv, 0, 10)
		if f.Kind > CompileError {
			t.Fatalf("invocation %d drew env kind %s from a VM-only model", inv, f.Kind)
		}
	}
}

func TestChaosFSDeterministicAndDamaging(t *testing.T) {
	p := Params{TornWriteProb: 0.3, BadRecordProb: 0.2, DiskFullProb: 0.1}
	run := func(dir string) ([]StorageFaultRecord, int) {
		cfs := NewChaosFS(wal.OSFS{}, p, 99)
		j, _, _, err := wal.OpenLines(cfs, filepath.Join(dir, "j.wal"))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		errs := 0
		for i := 0; i < 40; i++ {
			if err := j.Append([]byte(strings.Repeat("r", 20+i))); err != nil {
				if !strings.Contains(err.Error(), "disk full") {
					t.Fatalf("append %d: unexpected error %v", i, err)
				}
				errs++
			}
		}
		j.Close()
		return cfs.Injected(), errs
	}
	log1, errs1 := run(t.TempDir())
	log2, errs2 := run(t.TempDir())
	if !reflect.DeepEqual(log1, log2) || errs1 != errs2 {
		t.Fatalf("chaos schedule not deterministic: %d vs %d faults, %d vs %d errors",
			len(log1), len(log2), errs1, errs2)
	}
	if len(log1) == 0 {
		t.Fatal("chaos schedule injected nothing at 60% total probability over 40 writes")
	}

	// Recovery over the damaged journal must never yield a record that
	// differs from what was appended — only drop suffixes.
	dir := t.TempDir()
	cfs := NewChaosFS(wal.OSFS{}, p, 99)
	path := filepath.Join(dir, "j.wal")
	j, _, _, err := wal.OpenLines(cfs, path)
	if err != nil {
		t.Fatal(err)
	}
	var appended [][]byte
	for i := 0; i < 40; i++ {
		rec := []byte(strings.Repeat("r", 20+i))
		if err := j.Append(rec); err == nil {
			appended = append(appended, rec)
		}
	}
	j.Close()
	_, got, _, err := wal.OpenLines(wal.OSFS{}, path)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	// Silently-damaged appends mean got may be shorter than appended, and
	// (because a torn middle write shifts framing) recovery stops at the
	// first damage point; every surviving record must match position-wise.
	if len(got) > len(appended) {
		t.Fatalf("recovered more records (%d) than survived appending (%d)", len(got), len(appended))
	}
	for i := range got {
		if string(got[i]) != string(appended[i]) {
			t.Fatalf("record %d silently corrupted through recovery", i)
		}
	}
}
