// Package exp contains one runner per table and figure of the paper's
// evaluation, producing the same rows/series the paper reports. The
// timing experiments (Table I, Figures 1, 5, 6, 7, 8) drive the GPU
// simulator; the security experiments (Figures 3, 4) drive the attack
// toolkit, and every security study attacks one trained Victim per
// architecture. cmd/sealsim and cmd/sealsec expose them on the command
// line, and this package's tests check each one at quick scale.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is a generic experiment result: ordered columns, ordered rows.
type Table struct {
	Title   string
	Columns []string
	Rows    []TableRow
	Notes   []string
}

// TableRow is one labeled result row.
type TableRow struct {
	Label  string
	Values []float64
	// Text overrides numeric formatting per cell when non-nil (used for
	// N/A cells in Table I).
	Text []string
}

// AddRow appends a numeric row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, TableRow{Label: label, Values: values})
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("scheme")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(t.Columns))
		for j := range t.Columns {
			var s string
			if r.Text != nil && j < len(r.Text) && r.Text[j] != "" {
				s = r.Text[j]
			} else if j < len(r.Values) {
				s = formatVal(r.Values[j])
			}
			cells[i][j] = s
		}
	}
	for j, c := range t.Columns {
		widths[j+1] = len(c)
		for i := range t.Rows {
			if len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", widths[0]+2, "")
	for j, c := range t.Columns {
		fmt.Fprintf(w, "%*s  ", widths[j+1], c)
	}
	fmt.Fprintln(w)
	for i, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", widths[0]+2, r.Label)
		for j := range t.Columns {
			fmt.Fprintf(w, "%*s  ", widths[j+1], cells[i][j])
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Format(&b)
	return b.String()
}

// CSV writes the table as comma-separated values (header row, then one
// row per entry) for downstream plotting. Text overrides (N/A cells)
// are emitted verbatim.
func (t *Table) CSV(w io.Writer) error {
	row := make([]string, 0, len(t.Columns)+1)
	row = append(row, "scheme")
	row = append(row, t.Columns...)
	if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		row = row[:0]
		row = append(row, csvEscape(r.Label))
		for j := range t.Columns {
			switch {
			case r.Text != nil && j < len(r.Text) && r.Text[j] != "":
				row = append(row, csvEscape(r.Text[j]))
			case j < len(r.Values):
				row = append(row, fmt.Sprintf("%g", r.Values[j]))
			default:
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Bars renders the table as horizontal ASCII bar groups, one group per
// column — the closest a terminal gets to the paper's figures. Values
// are scaled to the table's maximum.
func (t *Table) Bars(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	maxV := 0.0
	for _, r := range t.Rows {
		for _, v := range r.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV <= 0 {
		fmt.Fprintln(w, "  (no positive values)")
		return
	}
	labelW := 0
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	const width = 40
	for j, col := range t.Columns {
		fmt.Fprintf(w, "  %s\n", col)
		for _, r := range t.Rows {
			if j >= len(r.Values) {
				continue
			}
			v := r.Values[j]
			n := int(v/maxV*width + 0.5)
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(w, "    %-*s %s %s\n", labelW, r.Label, strings.Repeat("█", n), formatVal(v))
		}
	}
}

// Row returns the row with the given label, or nil.
func (t *Table) Row(label string) *TableRow {
	for i := range t.Rows {
		if t.Rows[i].Label == label {
			return &t.Rows[i]
		}
	}
	return nil
}

// Cell returns the value at (rowLabel, column), with ok=false when
// either is missing.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	r := t.Row(rowLabel)
	if r == nil {
		return 0, false
	}
	for j, c := range t.Columns {
		if c == column && j < len(r.Values) {
			return r.Values[j], true
		}
	}
	return 0, false
}

func formatVal(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
