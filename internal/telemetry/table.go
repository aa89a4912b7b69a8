package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
)

// A Table is a set of metric families whose series are not instruments
// but rows their owner already keeps: one registration stands for
// columns × rows series, one label distinguishes the rows, and one walk
// of the owner's rows (TableSource.Each) serves a whole exposition or a
// whole bulk-reader pass. It is how a server exports per-stream series
// for thousands of streams without a closure, a label slice, a key
// string and two map entries per series — and without reading each
// stream once per family.

// Column is one metric family of a Table.
type Column struct {
	Name, Help string
	// Counter says the column is monotonic: exposed with TYPE counter and
	// integer formatting, SeriesCounter to bulk readers. Otherwise a gauge.
	Counter bool
}

// TableRows produces a Table's rows: it calls row for every one of them,
// in ascending slot order. A slot is the row's stable small non-negative
// integer — a label reports the same slot every time and no other label
// ever does; vals holds one value per column and is valid during the
// call. It runs with the table's lock held, never the registry's, and
// must be safe beside its owner's writers. When a row appears or
// disappears the owner says so with Registry.Changed.
type TableRows func(row func(slot int, label string, vals []float64))

type table struct {
	label string
	cols  []Column
	rows  TableRows

	mu     sync.Mutex
	labels []string  // by slot as of the last collection; "" where there is no row
	vals   []float64 // by slot, then column
	// cursor is the position — column-major, the order SeriesSnapshot
	// lists a table's series in — of the last cell read since the last
	// collection. A read at or before it starts a new pass and collects
	// afresh, so a reader going through its series in order walks the
	// source once a pass and no read is older than its pass.
	cursor int64
}

// Table registers cols as metric families whose rows the owner's rows
// produces, each row labelled label=<its label>. The families take the
// next places in exposition order; one with no rows is not exposed at all.
func (r *Registry) Table(label string, cols []Column, rows TableRows) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &table{label: label, cols: cols, rows: rows, cursor: math.MaxInt64}
	f := &family{table: t}
	for _, c := range cols {
		if _, dup := r.byName[c.Name]; dup {
			panic("telemetry: table column " + c.Name + " is already a metric family")
		}
		r.byName[c.Name] = f
	}
	r.families = append(r.families, f)
	r.version.Add(1)
}

// collect walks the source into labels and vals. Caller holds t.mu.
func (t *table) collect() {
	clear(t.labels)
	nc := len(t.cols)
	t.rows(func(slot int, label string, vals []float64) {
		for slot >= len(t.labels) {
			t.labels = append(t.labels, "")
			t.vals = append(t.vals, make([]float64, nc)...)
		}
		t.labels[slot] = label
		copy(t.vals[slot*nc:], vals)
	})
	t.cursor = math.MaxInt64 // the next cell read is a new pass
}

// cell is one series' current value for a bulk reader.
func (t *table) cell(slot, col int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := int64(col)<<32 | int64(slot)
	if pos <= t.cursor {
		t.collect()
	}
	t.cursor = pos
	if slot >= len(t.labels) || t.labels[slot] == "" {
		return 0
	}
	return t.vals[slot*len(t.cols)+col]
}

// get is the labelled row's value in column name, from a fresh collection.
func (t *table) get(name, label string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.collect()
	for ci, c := range t.cols {
		for slot, l := range t.labels {
			if c.Name == name && l == label {
				return t.vals[slot*len(t.cols)+ci], true
			}
		}
	}
	return 0, false
}

// write renders the table's families from one fresh collection.
func (t *table) write(b *strings.Builder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.collect()
	nc := len(t.cols)
	b.Grow(len(t.vals) * 48)
	esc := make([]string, len(t.labels)) // once a row, not once a cell
	for slot, label := range t.labels {
		esc[slot] = escapeLabel(label)
	}
	for ci, c := range t.cols {
		header := false
		for slot, label := range esc {
			if label == "" {
				continue
			}
			if !header {
				header = true
				typ := "gauge"
				if c.Counter {
					typ = "counter"
				}
				b.WriteString("# HELP " + c.Name + " " + c.Help + "\n# TYPE " + c.Name + " " + typ + "\n")
			}
			b.WriteString(c.Name)
			b.WriteByte('{')
			b.WriteString(t.label)
			b.WriteString(`="`)
			b.WriteString(label)
			b.WriteString(`"} `)
			if v := t.vals[slot*nc+ci]; c.Counter {
				b.WriteString(strconv.FormatInt(int64(v), 10))
			} else {
				b.WriteString(formatFloat(v))
			}
			b.WriteByte('\n')
		}
	}
}

// each calls fn for every series of the table — column-major, rows in
// slot order — from one fresh collection.
func (t *table) each(fn func(c Column, col, slot int, labels []Label, v float64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.collect()
	for ci, c := range t.cols {
		for slot, label := range t.labels {
			if label != "" {
				fn(c, ci, slot, []Label{{t.label, label}}, t.vals[slot*len(t.cols)+ci])
			}
		}
	}
}
