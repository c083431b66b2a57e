package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/vm"
)

// parseF pulls a float out of a rendered table cell.
func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestTable1Structure(t *testing.T) {
	e := New(fastConfig())
	tbl, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(e.Config().Benchmarks) {
		t.Fatalf("rows %d, want %d", len(tbl.Rows), len(e.Config().Benchmarks))
	}
	for _, row := range tbl.Rows {
		// Mix percentages must sum to <= 100 (Other is not shown).
		sum := 0.0
		for _, c := range row[4:] {
			sum += parseF(t, c)
		}
		if sum < 50 || sum > 100.5 {
			t.Errorf("%s: mix sums to %v", row[0], sum)
		}
		ops := parseF(t, row[2])
		instr := parseF(t, row[3])
		if instr <= ops {
			t.Errorf("%s: instructions (%v) must exceed ops (%v)", row[0], instr, ops)
		}
	}
}

func TestTable2Structure(t *testing.T) {
	e := New(fastConfig())
	tbl, err := e.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2*len(e.Config().Benchmarks) {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if mean := parseF(t, row[2]); mean <= 0 {
			t.Errorf("%s/%s: non-positive mean", row[0], row[1])
		}
		if cov := parseF(t, row[3]); cov <= 0 || cov > 50 {
			t.Errorf("%s/%s: CoV %v%% out of range", row[0], row[1], cov)
		}
	}
}

func TestTable5Structure(t *testing.T) {
	e := New(fastConfig())
	tbl, err := e.Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ipc := parseF(t, row[1])
		if ipc <= 0 || ipc > 1 {
			t.Errorf("%s: IPC %v out of (0, 1]", row[0], ipc)
		}
		if mpki := parseF(t, row[2]); mpki < 0 {
			t.Errorf("%s: negative MPKI", row[0])
		}
	}
}

func TestFigure3JITWinsOnLoopsLosesNowhereBig(t *testing.T) {
	e := New(fastConfig())
	tbl, err := e.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[0] == "GEOMEAN" {
			if g := parseF(t, row[1]); g < 1 {
				t.Errorf("geomean %v < 1", g)
			}
			continue
		}
		sp := parseF(t, row[1])
		if sp < 0.8 {
			t.Errorf("%s: JIT loses by %vx — the engines should never regress that hard", row[0], sp)
		}
		lo, hi := parseF(t, row[2]), parseF(t, row[3])
		if lo > hi || sp < lo-0.2 || sp > hi+0.2 {
			t.Errorf("%s: speedup %v outside CI [%v, %v]", row[0], sp, lo, hi)
		}
	}
}

func TestFigure6FractionsSumToOne(t *testing.T) {
	e := New(fastConfig())
	fig, err := e.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series %d", len(fig.Series))
	}
	n := len(fig.Series[0].Y)
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, s := range fig.Series {
			sum += s.Y[i]
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("benchmark %d: top-down fractions sum to %v", i, sum)
		}
	}
}

func TestFigure4HalfWidthShrinks(t *testing.T) {
	e := New(fastConfig())
	fig, err := e.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last >= first {
			t.Errorf("%s: half-width did not shrink: %v -> %v", s.Label, first, last)
		}
		// √(n_max/n_min) = √20 ≈ 4.5; demand at least a 2x shrink.
		if first/last < 2 {
			t.Errorf("%s: shrink factor %v too small", s.Label, first/last)
		}
	}
}

func TestAblation3FlattenedUndercovers(t *testing.T) {
	cfg := fastConfig()
	cfg.Trials = 80
	e := New(cfg)
	tbl, err := e.AblationCIMethod()
	if err != nil {
		t.Fatal(err)
	}
	var flattened, kj float64
	for _, row := range tbl.Rows {
		switch {
		case strings.HasPrefix(row[0], "flattened"):
			flattened = parseF(t, row[1])
		case strings.HasPrefix(row[0], "invocation-means t"):
			kj = parseF(t, row[1])
		}
	}
	if flattened >= 75 {
		t.Errorf("flattened coverage %v%% — should badly undercover", flattened)
	}
	if kj < 88 || kj > 100 {
		t.Errorf("KJ coverage %v%% — should be near nominal", kj)
	}
}

func TestAblation5NoiseOrdering(t *testing.T) {
	cfg := fastConfig()
	e := New(cfg)
	tbl, err := e.AblationNoiseModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	quiet := parseF(t, tbl.Rows[0][1])
	noisy := parseF(t, tbl.Rows[2][1])
	if quiet > noisy {
		t.Errorf("quiet machine needed more invocations (%v) than noisy (%v)", quiet, noisy)
	}
}

// TestExperimentsResume: every run of every experiment goes through
// Engine.run, and a journal is named by its experiment key, so one
// checkpoint directory serves them all. A second pass on a fresh engine
// resumes every run to the same bytes and appends nothing, and no
// experiment keeps a directory of its own.
func TestExperimentsResume(t *testing.T) {
	cfg := fastConfig()
	cfg.CheckpointDir = t.TempDir()
	pass := func() map[string]string {
		e := New(cfg)
		outs := map[string]string{}
		for _, id := range ExperimentIDs() {
			out, err := e.Experiment(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			outs[id] = out.String()
		}
		return outs
	}
	sizes := func() map[string]int64 {
		entries, err := os.ReadDir(cfg.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, en := range entries {
			fi, err := en.Info()
			if err != nil {
				t.Fatal(err)
			}
			if fi.IsDir() {
				t.Errorf("the checkpoint directory holds a subdirectory, %s", en.Name())
			}
			out[en.Name()] = fi.Size()
		}
		return out
	}
	first := pass()
	written := sizes()
	second := pass()
	for _, id := range ExperimentIDs() {
		if first[id] != second[id] {
			t.Errorf("%s: resumed output differs:\n%s\nfirst pass:\n%s", id, second[id], first[id])
		}
	}
	if resumed := sizes(); !reflect.DeepEqual(resumed, written) {
		t.Errorf("journals changed on resume: %d files before, %d after", len(written), len(resumed))
		for name, size := range written {
			if resumed[name] != size {
				t.Errorf("%s: %d bytes, was %d", name, resumed[name], size)
			}
		}
	}
}

// TestExperimentsFailBelowQuorum: every VM run of every experiment goes
// through the supervision policy, so under panic=1 each experiment fails
// below quorum, except A3 and A4, which run no VM.
func TestExperimentsFailBelowQuorum(t *testing.T) {
	cfg := fastConfig()
	cfg.Faults = faults.Params{PanicProb: 1}
	e := New(cfg)
	for _, id := range ExperimentIDs() {
		_, err := e.Experiment(id)
		if id == "A3" || id == "A4" {
			if err != nil {
				t.Errorf("%s runs no VM, yet failed: %v", id, err)
			}
			continue
		}
		if !errors.Is(err, harness.ErrQuorum) {
			t.Errorf("%s: %v, want an error wrapping harness.ErrQuorum", id, err)
		}
	}
}

// TestExperimentsFootnoteLostWork: under a policy that recovers
// invocations, a table prints one note per run that lost work: T2's notes
// are those of a bare supervisor run at each arm's seed, and every note of
// A7–A9 names the arm (opt level or VM stream) that lost the work.
func TestExperimentsFootnoteLostWork(t *testing.T) {
	cfg := fastConfig()
	cfg.Retries = 2
	cfg.Quorum = 2
	cfg.Faults = faults.Params{PanicProb: 0.3}
	e := New(cfg)
	cfg = e.Config()
	notes := func(id string) []string {
		out, err := e.Experiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var lines []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "note: ") {
				lines = append(lines, line)
			}
		}
		return lines
	}
	var want []string
	for _, b := range cfg.Benchmarks {
		for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			res, err := harness.NewSupervisor(harness.NewRunner(), cfg.SupervisorOptions()).Run(context.Background(), b, harness.Options{
				Mode: mode, Invocations: cfg.Invocations, Iterations: cfg.Iterations,
				Seed: cfg.Seed ^ benchSeed(b.Name, mode), Noise: cfg.Noise})
			if err != nil {
				t.Fatal(err)
			}
			if res.Supervision.Degraded() {
				want = append(want, fmt.Sprintf("note: %s/%s: %s", b.Name, mode, res.Supervision.Summary()))
			}
		}
	}
	if got := notes("T2"); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("T2 notes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for id, arms := range map[string][]string{
		"A7": {"/interp: ", "/interp -opt 2: "},
		"A8": {"/interp -opt 2: ", "/interp -opt 2: "},
		"A9": {"/interp -vm reg: ", "/interp -vm reg-elide: "},
	} {
		got := notes(id)
		if len(got) == 0 || len(got) > 2*len(cfg.Benchmarks) {
			t.Errorf("%s: %d notes for %d runs", id, len(got), 2*len(cfg.Benchmarks))
		}
		for _, line := range got {
			if !strings.Contains(line, arms[0]+"supervision:") && !strings.Contains(line, arms[1]+"supervision:") {
				t.Errorf("%s: note names neither arm %q: %s", id, arms, line)
			}
		}
	}
}

func TestTableCaptionsPresent(t *testing.T) {
	e := New(fastConfig())
	for _, id := range []string{"T1", "T2", "T4", "T5"} {
		out, err := e.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl, ok := out.(*report.Table)
		if !ok {
			t.Fatalf("%s: not a table", id)
		}
		if tbl.Caption == "" {
			t.Errorf("%s: missing caption", id)
		}
	}
}
