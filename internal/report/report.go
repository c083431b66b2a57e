// Package report renders experiment results as aligned ASCII tables, CSV,
// and text "figures" (labelled series with sparklines). Every table and
// figure in EXPERIMENTS.md is produced through this package, so output is
// uniform across the CLI, the examples, and the bench harness.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned table builder.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
	// Footnotes are degradation/annotation lines rendered after the
	// caption — the report layer's channel for "this experiment lost
	// work" (retries, dropped invocations, quarantined samples).
	Footnotes []string
}

// AddFootnote appends an annotation line to the table.
func (t *Table) AddFootnote(format string, args ...interface{}) {
	t.Footnotes = append(t.Footnotes, fmt.Sprintf(format, args...))
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
			continue
		case string:
			row[i] = v
			continue
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: 3-4 significant decimals scaled to
// the magnitude, scientific for extremes.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-4:
		return fmt.Sprintf("%.3g", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(w, "%s\n", t.Caption)
	}
	for _, fn := range t.Footnotes {
		fmt.Fprintf(w, "note: %s\n", fn)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// CSV writes the table as RFC-4180-ish CSV (quotes only where needed).
func (t *Table) CSV(w io.Writer) {
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Figure is a labelled collection of numeric series rendered as sparklines
// plus a compact numeric dump — a text stand-in for the paper's plots.
type Figure struct {
	Title   string
	XLabel  string
	YLabel  string
	Series  []Series
	Caption string
}

// Series is one line in a figure.
type Series struct {
	Label string
	X     []float64 // optional; indices used when nil
	Y     []float64
}

// NewFigure creates a figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Add appends a series with implicit X = 0..n-1.
func (f *Figure) Add(label string, y []float64) {
	f.Series = append(f.Series, Series{Label: label, Y: y})
}

// AddXY appends a series with explicit X values.
func (f *Figure) AddXY(label string, x, y []float64) {
	f.Series = append(f.Series, Series{Label: label, X: x, Y: y})
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders ys scaled to the block-element ramp.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	var sb strings.Builder
	for _, y := range ys {
		idx := 0
		if hi > lo {
			idx = int((y - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// Render writes the figure: per series a sparkline, min/max, and the values.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	if f.XLabel != "" || f.YLabel != "" {
		fmt.Fprintf(w, "   x: %s, y: %s\n", f.XLabel, f.YLabel)
	}
	labelW := 0
	for _, s := range f.Series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "%s  %s  [min %s, max %s]\n",
			pad(s.Label, labelW), Sparkline(s.Y),
			FormatFloat(minOf(s.Y)), FormatFloat(maxOf(s.Y)))
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "%s:", s.Label)
		for i, y := range s.Y {
			if s.X != nil {
				fmt.Fprintf(w, " (%s,%s)", FormatFloat(s.X[i]), FormatFloat(y))
			} else {
				fmt.Fprintf(w, " %s", FormatFloat(y))
			}
		}
		fmt.Fprintln(w)
	}
	if f.Caption != "" {
		fmt.Fprintf(w, "%s\n", f.Caption)
	}
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var sb strings.Builder
	f.Render(&sb)
	return sb.String()
}

func minOf(ys []float64) float64 {
	m := math.Inf(1)
	for _, y := range ys {
		if y < m {
			m = y
		}
	}
	return m
}

func maxOf(ys []float64) float64 {
	m := math.Inf(-1)
	for _, y := range ys {
		if y > m {
			m = y
		}
	}
	return m
}

// Markdown writes the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) {
	row := func(cells []string) {
		fmt.Fprint(w, "|")
		for _, c := range cells {
			fmt.Fprintf(w, " %s |", strings.ReplaceAll(c, "|", "\\|"))
		}
		fmt.Fprintln(w)
	}
	if t.Title != "" {
		fmt.Fprintf(w, "### %s\n\n", t.Title)
	}
	row(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	if t.Caption != "" {
		fmt.Fprintf(w, "\n*%s*\n", t.Caption)
	}
	for _, fn := range t.Footnotes {
		fmt.Fprintf(w, "\n> %s\n", fn)
	}
}
