package report

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableAlignmentAndContent(t *testing.T) {
	tbl := NewTable("Demo", "name", "value", "note")
	tbl.AddRow("short", 1.5, "x")
	tbl.AddRow("a-much-longer-name", 123456.0, "y")
	tbl.Caption = "caption line"
	out := tbl.String()

	if !strings.Contains(out, "== Demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "caption line") {
		t.Error("caption missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, header, separator, 2 rows, caption.
	if len(lines) != 6 {
		t.Fatalf("line count %d: %q", len(lines), out)
	}
	// The value column must start at the same offset in both data rows.
	r1, r2 := lines[3], lines[4]
	if strings.Index(r1, "1.5") == -1 || strings.Index(r2, "123456") == -1 {
		t.Fatalf("values missing: %q %q", r1, r2)
	}
	if idx := strings.Index(lines[1], "value"); idx != strings.Index(r2, "123456") {
		t.Errorf("column misaligned: header@%d value@%d",
			strings.Index(lines[1], "value"), strings.Index(r2, "123456"))
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("T", "a", "b")
	tbl.AddRow("plain", 2.0)
	tbl.AddRow("with,comma", `with"quote`)
	var sb strings.Builder
	tbl.CSV(&sb)
	got := sb.String()
	want := "a,b\nplain,2.000\n\"with,comma\",\"with\"\"quote\"\n"
	if got != want {
		t.Fatalf("CSV:\n got %q\nwant %q", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.500",
		123.456: "123.5",
		0.01234: "0.0123",
		1e9:     "1e+09",
		1e-7:    "1e-07",
		-2.25:   "-2.250",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline length %d", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("sparkline endpoints: %q", s)
	}
	// Constant series: all minimum glyphs, no panic.
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat sparkline %q", flat)
		}
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("Fig", "iteration", "time")
	f.Add("warm", []float64{3, 2, 1, 1, 1})
	f.AddXY("sweep", []float64{2, 4, 8}, []float64{0.5, 0.25, 0.125})
	f.Caption = "note"
	out := f.String()
	for _, want := range []string{"== Fig ==", "x: iteration", "warm", "sweep",
		"(2.000,0.5000)", "[min 1.000, max 3.000]", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureSeriesValuesListed(t *testing.T) {
	f := NewFigure("F", "", "")
	f.Add("s", []float64{1, 2})
	out := f.String()
	if !strings.Contains(out, "s: 1.000 2.000") {
		t.Fatalf("values line missing:\n%s", out)
	}
}

func TestTableHandlesIntsAndStrings(t *testing.T) {
	tbl := NewTable("T", "a", "b", "c")
	tbl.AddRow(42, "str", uint64(7))
	out := tbl.String()
	if !strings.Contains(out, "42") || !strings.Contains(out, "str") || !strings.Contains(out, "7") {
		t.Fatalf("row rendering: %s", out)
	}
}

func TestTableFootnotes(t *testing.T) {
	tbl := NewTable("FN", "a")
	tbl.AddRow("x")
	tbl.Caption = "cap"
	tbl.AddFootnote("effective N %d/%d", 8, 10)
	tbl.AddFootnote("plain note")
	out := tbl.String()
	for _, want := range []string{"cap", "note: effective N 8/10", "note: plain note"} {
		if !strings.Contains(out, want) {
			t.Errorf("text render missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "cap") > strings.Index(out, "note: effective") {
		t.Error("footnotes must render after the caption")
	}
	var sb strings.Builder
	tbl.Markdown(&sb)
	if !strings.Contains(sb.String(), "> effective N 8/10") {
		t.Errorf("markdown render missing footnote:\n%s", sb.String())
	}
}

func TestFigureFootnotes(t *testing.T) {
	f := NewFigure("FN", "x", "y")
	f.Add("s", []float64{1, 2})
	f.Caption = "cap"
	f.Footnotes = []string{"fib/interp: lost work"}
	out := f.String()
	if !strings.HasSuffix(out, "cap\nnote: fib/interp: lost work\n") {
		t.Errorf("footnote must render after the caption:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("MD", "name", "v")
	tbl.AddRow("a|b", 1.0)
	tbl.Caption = "note"
	var sb strings.Builder
	tbl.Markdown(&sb)
	out := sb.String()
	for _, want := range []string{"### MD", "| name | v |", "| --- | --- |",
		`| a\|b | 1.000 |`, "*note*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
