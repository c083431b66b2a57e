package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
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

// TestAblation5Resumes: A5 runs under the engine's supervision policy, so
// a checkpoint directory reaches it. Its three noise models run the same
// benchmarks, mode and seed, so each keeps journals of its own; a second
// run over the same directory resumes all of them to the same table and
// has nothing left to append.
func TestAblation5Resumes(t *testing.T) {
	cfg := fastConfig()
	cfg.CheckpointDir = t.TempDir()
	first, err := New(cfg).AblationNoiseModel()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, model := range []string{"quiet", "default", "noisy"} {
		for _, b := range cfg.Benchmarks {
			path := filepath.Join(cfg.CheckpointDir, "A5", model, b.Name+"_interp.ckpt.wal")
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			sizes[path] = fi.Size()
		}
	}
	second, err := New(cfg).AblationNoiseModel()
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("resumed table differs:\n%s\nfirst run:\n%s", second, first)
	}
	for path, size := range sizes {
		if fi, err := os.Stat(path); err != nil || fi.Size() != size {
			t.Errorf("%s changed on resume (was %d bytes): %v, %v", path, size, fi, err)
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
