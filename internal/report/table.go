// Package report renders the reproduction's tables and figure views as
// plain text: the generic column-aligned table writer plus specific views
// for Table I, the Fig. 1 life-cycle, the Fig. 2 topology, the Fig. 4
// policy engine and attack-harness results.
package report

import (
	"fmt"
	"strings"
)

// Align selects column alignment.
type Align uint8

// Alignments.
const (
	// Left-aligned column.
	Left Align = iota + 1
	// Right-aligned column.
	Right
	// Center-aligned column.
	Center
)

// Column describes one table column.
type Column struct {
	// Header is the column title.
	Header string
	// Align selects cell alignment (Left if zero).
	Align Align
}

// Table is a simple column-aligned text table. The zero value is unusable;
// construct with NewTable.
type Table struct {
	cols []Column
	rows [][]string
	seps map[int]bool // separator rows after the given row index
}

// NewTable creates a table with the given columns.
func NewTable(cols ...Column) *Table {
	return &Table{cols: cols, seps: map[int]bool{}}
}

// AddRow appends a row; missing cells render empty, extra cells are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.cols))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddSeparator inserts a horizontal rule after the last added row.
func (t *Table) AddSeparator() {
	t.seps[len(t.rows)-1] = true
}

// widths computes per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.cols))
	for i, c := range t.cols {
		w[i] = len(c.Header)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > w[i] {
				w[i] = len(cell)
			}
		}
	}
	return w
}

func pad(s string, width int, a Align) string {
	gap := width - len(s)
	if gap <= 0 {
		return s
	}
	switch a {
	case Right:
		return strings.Repeat(" ", gap) + s
	case Center:
		l := gap / 2
		return strings.Repeat(" ", l) + s + strings.Repeat(" ", gap-l)
	default:
		return s + strings.Repeat(" ", gap)
	}
}

// String renders the table.
func (t *Table) String() string {
	w := t.widths()
	var b strings.Builder
	rule := func() {
		for i := range t.cols {
			b.WriteByte('+')
			b.WriteString(strings.Repeat("-", w[i]+2))
		}
		b.WriteString("+\n")
	}
	writeRow := func(cells []string, forceAlign Align) {
		for i := range t.cols {
			a := t.cols[i].Align
			if a == 0 {
				a = Left
			}
			if forceAlign != 0 {
				a = forceAlign
			}
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, "| %s ", pad(cell, w[i], a))
		}
		b.WriteString("|\n")
	}
	rule()
	headers := make([]string, len(t.cols))
	for i, c := range t.cols {
		headers[i] = c.Header
	}
	writeRow(headers, Center)
	rule()
	for i, row := range t.rows {
		writeRow(row, 0)
		if t.seps[i] && i != len(t.rows)-1 {
			rule()
		}
	}
	rule()
	return b.String()
}
