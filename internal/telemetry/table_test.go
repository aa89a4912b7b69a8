package telemetry

import (
	"strings"
	"testing"
)

// fakeRows is a table owner: rows by slot, "" where there is none, and a
// count of how often it was walked.
type fakeRows struct {
	labels []string
	vals   [][]float64
	walks  int
}

func (f *fakeRows) each(row func(slot int, label string, vals []float64)) {
	f.walks++
	for slot, l := range f.labels {
		if l != "" {
			row(slot, l, f.vals[slot])
		}
	}
}

func newTableRegistry(f *fakeRows) *Registry {
	reg := NewRegistry()
	reg.Counter("before_total", "Registered before the table.").Add(1)
	reg.Table("source", []Column{{Name: "rows_total", Help: "A counter column.", Counter: true}, {Name: "rows_level", Help: "A gauge column."}}, f.each)
	reg.Gauge("after", "Registered after the table.").Set(2)
	return reg
}

// TestTableExposition pins a table's place and form in the exposition: its
// families where it was registered, column by column, rows in slot order,
// counters as integers, labels escaped, and nothing at all while it has no
// rows.
func TestTableExposition(t *testing.T) {
	f := &fakeRows{}
	reg := newTableRegistry(f)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "rows_") {
		t.Fatalf("a table with no rows is exposed:\n%s", b.String())
	}
	f.labels = []string{"", "a", "", `b"c`}
	f.vals = [][]float64{nil, {3, 0.5}, nil, {4, -1}}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP before_total Registered before the table.
# TYPE before_total counter
before_total 1
# HELP rows_total A counter column.
# TYPE rows_total counter
rows_total{source="a"} 3
rows_total{source="b\"c"} 4
# HELP rows_level A gauge column.
# TYPE rows_level gauge
rows_level{source="a"} 0.5
rows_level{source="b\"c"} -1
# HELP after Registered after the table.
# TYPE after gauge
after 2
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	if v, ok := reg.Get("rows_level", L("source", `b"c`)); !ok || v != -1 {
		t.Errorf("Get of a table cell = %v (present %v), want -1", v, ok)
	}
	if _, ok := reg.Get("rows_level", L("source", "nobody")); ok {
		t.Error("Get found a row the table does not have")
	}
	if _, ok := reg.Get("rows_level", L("shard", "a")); ok {
		t.Error("Get matched a table row under another label key")
	}
}

// TestTableBulkReader pins what SeriesSnapshot holders get from a table:
// its series where the exposition puts them, one walk of the owner per
// in-order pass however many cells the pass reads, fresh values every
// pass, a cell read twice read afresh, a vanished row reading 0, and a
// version that moves when the owner says its rows changed.
func TestTableBulkReader(t *testing.T) {
	f := &fakeRows{labels: []string{"", "a", "b"}, vals: [][]float64{nil, {1, 10}, {2, 20}}}
	reg := newTableRegistry(f)
	series := reg.SeriesSnapshot()
	var names []string
	for _, s := range series {
		name := s.Name + "/"
		if len(s.Labels) > 0 {
			name += s.Labels[0].Value
		}
		names = append(names, name)
	}
	if got, want := strings.Join(names, " "), "before_total/ rows_total/a rows_total/b rows_level/a rows_level/b after/"; got != want {
		t.Fatalf("series are %q, want %q", got, want)
	}
	if series[1].Kind != SeriesCounter || !series[1].Cumulative() || series[3].Kind != SeriesGaugeFunc {
		t.Errorf("a counter column reads as kind %v, a gauge column as %v", series[1].Kind, series[3].Kind)
	}
	pass := func() (vals []float64) {
		for _, s := range series {
			vals = append(vals, s.Scalar())
		}
		return vals
	}
	f.walks = 0
	if got := pass(); got[1] != 1 || got[2] != 2 || got[3] != 10 || got[4] != 20 || f.walks != 1 {
		t.Fatalf("first pass read %v in %d walks, want the rows' values in 1", got, f.walks)
	}
	f.vals[1][1], f.labels[2] = 11, ""
	if got := pass(); got[3] != 11 || got[2] != 0 || got[4] != 0 || f.walks != 2 {
		t.Fatalf("second pass read %v in %d walks, want the new value, 0 for the vanished row, 2 walks", got, f.walks)
	}
	series[1].Scalar() // back to the first cell: a third pass begins
	f.vals[1][1] = 12
	if got := series[3].Scalar(); got != 11 || f.walks != 3 {
		t.Errorf("a cell further along the same pass read %v after %d walks, want the pass's 11 and 3", got, f.walks)
	}
	if got := series[3].Scalar(); got != 12 || f.walks != 4 {
		t.Errorf("a cell read twice read %v after %d walks, want a fresh 12 and 4", got, f.walks)
	}
	v := reg.Version()
	reg.Changed()
	if reg.Version() == v {
		t.Error("Changed left the version where it was")
	}
}
