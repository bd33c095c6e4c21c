package scenario

// This file renders swept outcomes as tables. Result used to live in
// internal/exp; it moved here so manifest-driven sweeps and the
// built-in experiments share one table type and one renderer (the
// byte-identity guarantee between `accesys run fig4` and
// `accesys sweep testdata/fig4.json` rests on that sharing).

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"accesys/internal/sim"
	"accesys/internal/sweep"
)

// Result is one rendered table/figure.
type Result struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-text note (shape checks, caveats).
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Headers)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV emits the headers and rows (notes are dropped) as CSV.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Headers); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// cellFormats are the supported duration cell formats.
var cellFormats = map[string]func(sim.Tick) string{
	"ms3": func(d sim.Tick) string { return fmt.Sprintf("%.3fms", d.Seconds()*1e3) },
	"ms2": func(d sim.Tick) string { return fmt.Sprintf("%.2fms", d.Seconds()*1e3) },
	"s3":  func(d sim.Tick) string { return fmt.Sprintf("%.3fs", d.Seconds()) },
}

// Render turns outcomes into the scenario's declared table: a
// row-by-column pivot when Table names both axes, otherwise a flat
// one-row-per-point listing with extracted metrics as extra columns.
func (s *Scenario) Render(full bool, runs []Run, outs []sweep.Outcome) (*Result, error) {
	if len(runs) != len(outs) {
		return nil, fmt.Errorf("scenario %s: %d runs but %d outcomes", s.Name, len(runs), len(outs))
	}
	r := &Result{ID: s.Name, Title: s.TitleFor(full)}
	cell := cellFormats[s.cell()]

	if s.Table.Col == "" {
		return s.renderFlat(r, runs, outs, cell)
	}

	// Pivot: validation pinned exactly two axes. Their strides locate
	// each (row, col) cell's outcome in either declaration order.
	sp, err := s.Space(full)
	if err != nil {
		return nil, err
	}
	rows, cols := sp.axis(s.Table.Row), sp.axis(s.Table.Col)
	r.Headers = []string{cmp.Or(s.Table.RowHeader, s.Table.Row)}
	for _, c := range cols.sets {
		r.Headers = append(r.Headers, c.header)
	}
	for ri, row := range rows.sets {
		cells := []string{row.label}
		for ci := range cols.sets {
			cells = append(cells, cell(outs[ri*rows.stride+ci*cols.stride].Dur))
		}
		r.AddRow(cells...)
	}
	return r, nil
}

// renderFlat lists one row per point: key, duration, then any
// extracted metrics in sorted column order.
func (s *Scenario) renderFlat(r *Result, runs []Run, outs []sweep.Outcome, cell func(sim.Tick) string) (*Result, error) {
	keys := map[string]bool{}
	for _, o := range outs {
		for k := range o.Values {
			keys[k] = true
		}
	}
	metrics := make([]string, 0, len(keys))
	for k := range keys {
		metrics = append(metrics, k)
	}
	sort.Strings(metrics)

	r.Headers = append([]string{"point", "exec"}, metrics...)
	for i, run := range runs {
		row := []string{run.Key, cell(outs[i].Dur)}
		for _, m := range metrics {
			row = append(row, fmt.Sprintf("%g", outs[i].Value(m)))
		}
		r.AddRow(row...)
	}
	return r, nil
}
