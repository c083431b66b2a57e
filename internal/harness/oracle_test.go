package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/noise"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// oracleGolden holds one line per oracle row. It was generated by the stack
// interpreter that the register loop replaced, so it is the reference the
// one remaining executor is held to.
var oracleGolden = filepath.Join("testdata", "oracle.golden")

// oracleRow is one golden line; rows sharing a group run in one subtest.
type oracleRow struct {
	name, group string
	bench       workloads.Benchmark
	opts        Options
}

// oracleRows lists every workload in the suite and the extended set under
// both engines at -opt 0..2, plus fib's full sample set at two seeds.
func oracleRows() []oracleRow {
	var rows []oracleRow
	benches := append(append([]workloads.Benchmark{}, workloads.Suite()...),
		workloads.Extended()...)
	for _, b := range benches {
		for opt := 0; opt <= minipy.MaxOptLevel; opt++ {
			for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
				rows = append(rows, oracleRow{
					name:  fmt.Sprintf("%s/%s/opt%d", b.Name, mode, opt),
					group: fmt.Sprintf("%s/opt%d", b.Name, opt),
					bench: b,
					opts: Options{Mode: mode, Invocations: 1, Iterations: 2, Seed: 42,
						Noise: noise.Default(), Opt: opt, WithCounters: true},
				})
			}
		}
	}
	fib, _ := workloads.ByName("fib")
	for _, seed := range []uint64{42, 20260806} {
		rows = append(rows, oracleRow{
			name:  fmt.Sprintf("fib/interp/3x5/seed%d", seed),
			group: "fib/3x5",
			bench: fib,
			opts: Options{Mode: vm.ModeInterp, Invocations: 3, Iterations: 5, Seed: seed,
				Noise: noise.Default(), WithCounters: true},
		})
	}
	return rows
}

// oracleLine runs one row and renders it as: row name, checksum, executed
// steps, and the SHA-256 of the serialized invocation records (times,
// cycles, steps, counters, instruction mix, JIT statistics).
func oracleLine(t *testing.T, row oracleRow) string {
	t.Helper()
	res, err := NewRunner().Run(row.bench, row.opts)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	raw, err := json.Marshal(res.Invocations)
	if err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for _, inv := range res.Invocations {
		for _, s := range inv.Steps {
			steps += s
		}
	}
	return fmt.Sprintf("%s %q %d %x", row.name, res.Invocations[0].Checksum, steps, sha256.Sum256(raw))
}

// TestRegisterTierPreservesResults holds the interpreter to committed data:
// every row of testdata/oracle.golden must be reproduced byte for byte. A
// quickening guard, unboxing escape or lowering bug that changes any
// observable fails here by workload, engine and opt level. Run with -update
// to rewrite the file; the rows are the simulated machine's definition, so
// a rewrite is a deliberate change of the measured object.
func TestRegisterTierPreservesResults(t *testing.T) {
	rows := oracleRows()
	want := map[string]string{}
	if !*updateGolden {
		data, err := os.ReadFile(oracleGolden)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
		if len(want) != len(rows) {
			t.Errorf("%s has %d rows, the test defines %d", oracleGolden, len(want), len(rows))
		}
	}
	got := make([]string, len(rows))
	t.Cleanup(func() {
		if !*updateGolden || t.Failed() {
			return
		}
		for _, line := range got {
			if line == "" {
				t.Error("-update needs every row: run the whole test")
				return
			}
		}
		if err := os.WriteFile(oracleGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Error(err)
		}
	})
	groups := map[string][]int{}
	var order []string
	for i, row := range rows {
		if _, ok := groups[row.group]; !ok {
			order = append(order, row.group)
		}
		groups[row.group] = append(groups[row.group], i)
	}
	for _, g := range order {
		idx := groups[g]
		t.Run(g, func(t *testing.T) {
			t.Parallel()
			for _, i := range idx {
				got[i] = oracleLine(t, rows[i])
				if !*updateGolden && got[i] != want[rows[i].name] {
					t.Errorf("row drifted from %s:\ngot  %s\nwant %s", oracleGolden, got[i], want[rows[i].name])
				}
			}
		})
	}
}
