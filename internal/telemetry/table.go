package telemetry

import (
	"strconv"
	"strings"
	"sync"
)

// A Table is a set of metric families whose series are not instruments
// but rows their owner already keeps: one registration stands for
// columns × rows series, one label distinguishes the rows, and one walk
// of the owner's rows (TableRows) serves a whole exposition. It is how a
// server exports per-stream series for thousands of streams without a
// closure, a label slice, a key string and two map entries per series —
// and without reading each stream once per family.
//
// A family reader (FamilyTotal) does not see the rows: a counter column
// reads as its total over them — what every windowed reader of a per-row
// family sums to anyway. A gauge column has no total.

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
// must be safe beside its owner's writers.
type TableRows func(row func(slot int, label string, vals []float64))

type table struct {
	label string
	cols  []Column
	rows  TableRows
	row   func(slot int, label string, vals []float64) // t.take, bound once so a collection allocates nothing

	mu     sync.Mutex
	labels []string  // by slot as of the last collection; "" where there is no row
	vals   []float64 // by slot, then column; a vanished row's stay as its baseline
	// totals is, by column, every increase any row's cell has shown from
	// one collection to the next — the first sight of a row counting from
	// zero. A row that vanishes keeps what it added and a cell that reads
	// lower adds nothing, so a counter column's total never goes backwards
	// whatever the owner drops or rolls up. sums is the running value under
	// mu; totals is what readers load, published once a collection.
	sums   []float64
	totals []Gauge
}

// Table registers cols as metric families whose rows the owner's rows
// produces, each row labelled label=<its label>. The families take the
// next places in exposition order; one with no rows is not exposed at all.
func (r *Registry) Table(label string, cols []Column, rows TableRows) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &table{label: label, cols: cols, rows: rows, sums: make([]float64, len(cols)), totals: make([]Gauge, len(cols))}
	t.row = t.take
	f := &family{table: t}
	for _, c := range cols {
		if _, dup := r.byName[c.Name]; dup {
			panic("telemetry: table column " + c.Name + " is already a metric family")
		}
		r.byName[c.Name] = f
	}
	r.families = append(r.families, f)
}

// collect walks the source into labels and vals and adds the counter
// columns' increases to totals. Caller holds t.mu.
func (t *table) collect() {
	clear(t.labels)
	t.rows(t.row)
	for ci, sum := range t.sums {
		t.totals[ci].Set(sum)
	}
}

// take is collect's side of TableRows: one row.
func (t *table) take(slot int, label string, vals []float64) {
	nc := len(t.cols)
	for slot >= len(t.labels) {
		t.labels = append(t.labels, "")
		t.vals = append(t.vals, make([]float64, nc)...)
	}
	t.labels[slot] = label
	was := t.vals[slot*nc : slot*nc+nc]
	for ci, v := range vals {
		if t.cols[ci].Counter && v > was[ci] {
			t.sums[ci] += v - was[ci]
		}
	}
	copy(was, vals)
}

// total is counter column name's total over the rows, from a fresh
// collection; ok is false for a gauge column.
func (t *table) total(name string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.collect()
	for ci, c := range t.cols {
		if c.Name == name && c.Counter {
			return t.totals[ci].Value(), true
		}
	}
	return 0, false
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
