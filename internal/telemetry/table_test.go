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

// TestTableBulkReader pins what a family reader gets from a table: one
// unlabelled series per counter column listed where the exposition puts
// the family, none for a gauge column, no walk of the owner to list them
// and one per FamilyTotal read, and a total that only ever grows — by what
// each row's cell rose between collections, whichever reader collected —
// through a row vanishing, coming back lower and a roll-up row shrinking.
func TestTableBulkReader(t *testing.T) {
	f := &fakeRows{labels: []string{"", "a", "b"}, vals: [][]float64{nil, {1, 10}, {2, 20}}}
	reg := newTableRegistry(f)
	series := reg.SeriesSnapshot()
	var names []string
	for _, s := range series {
		names = append(names, s.Name)
		if len(s.Labels) != 0 {
			t.Errorf("%s carries labels %v", s.Name, s.Labels)
		}
	}
	if got, want := strings.Join(names, " "), "before_total rows_total after"; got != want {
		t.Fatalf("series are %q, want %q", got, want)
	}
	if series[1].Kind != SeriesCounter {
		t.Errorf("a counter column's total reads as kind %v", series[1].Kind)
	}
	if f.walks != 0 {
		t.Fatalf("listing the series walked the owner %d times", f.walks)
	}
	if _, ok := reg.FamilyTotal("rows_level"); ok {
		t.Error("a gauge column read as a total")
	}
	pass := func(want float64, why string) {
		t.Helper()
		walks := f.walks
		if got, ok := reg.FamilyTotal("rows_total"); !ok || got != want {
			t.Fatalf("total is %v (%v), want %v: %s", got, ok, want, why)
		}
		if f.walks != walks+1 {
			t.Fatalf("a read walked the owner %d times", f.walks-walks)
		}
	}
	pass(3, "the rows' 1 + 2 at first sight")
	f.vals[1][0] = 5
	pass(7, "row a rose by 4")
	f.labels[2] = ""
	pass(7, "a vanished row keeps what it added")
	f.labels[2], f.vals[2][0] = "b", 1
	pass(7, "a row back below where it was adds nothing")
	f.vals[2][0] = 4
	pass(10, "and counts on from there")
	f.vals[1][0] = 6
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil { // a scrape collects too
		t.Fatal(err)
	}
	pass(11, "nothing is counted twice")
}

// TestFamilyTotal: a family reads as the sum of its instances' values,
// less those carrying a skipped label; a histogram family reads only as
// its instances' merged buckets; a name nobody registered reads as
// nothing.
func TestFamilyTotal(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("errs_total", "", L("kind", "io")).Add(3)
	reg.Counter("errs_total", "", L("kind", "peer_closed")).Add(5)
	reg.Counter("errs_total", "", L("kind", "decode")).Add(7)
	reg.GaugeFunc("depth", "", func() float64 { return 2.5 }, L("shard", "0"))
	reg.GaugeFunc("depth", "", func() float64 { return 4 }, L("shard", "1"))
	reg.Histogram("lat_ns", "", L("op", "a")).Observe(3)
	reg.Histogram("lat_ns", "", L("op", "b")).Observe(1000)
	for _, c := range []struct {
		name string
		skip []Label
		want float64
	}{
		{"errs_total", nil, 15},
		{"errs_total", []Label{L("kind", "peer_closed")}, 10},
		{"errs_total", []Label{L("kind", "peer_closed"), L("kind", "io")}, 7},
		{"depth", nil, 6.5},
	} {
		if got, ok := reg.FamilyTotal(c.name, c.skip...); !ok || got != c.want {
			t.Errorf("FamilyTotal(%s, %v) = %v, %v; want %v", c.name, c.skip, got, ok, c.want)
		}
	}
	if _, ok := reg.FamilyTotal("lat_ns"); ok {
		t.Error("a histogram family read as a total")
	}
	if _, ok := reg.FamilyTotal("nobody"); ok {
		t.Error("an unregistered name read as a total")
	}
	h, ok := reg.FamilyHistogram("lat_ns")
	if !ok || h.Count != 2 || h.Sum != 1003 || h.Counts[2] != 1 || h.Counts[10] != 1 {
		t.Errorf("FamilyHistogram(lat_ns) = %+v, %v; want the two observations merged", h, ok)
	}
	if _, ok := reg.FamilyHistogram("errs_total"); ok {
		t.Error("a counter family read as a histogram")
	}
}
