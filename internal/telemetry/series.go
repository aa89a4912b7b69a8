package telemetry

// Bulk-reader API: stable handles onto every registered instrument, for
// components that sample the whole registry repeatedly (the history ring
// in internal/telemetry/history). A reader snapshots the handle list
// once, then on every pass calls CollectTables and reads values
// lock-free; Version tells it when the instrument population changed and
// the list must be rebuilt.

// SeriesKind identifies the instrument class behind a Series handle.
type SeriesKind int

const (
	// SeriesCounter is a monotonically increasing Counter, or the total of
	// a Table's counter column.
	SeriesCounter SeriesKind = iota
	// SeriesGauge is a last-write-wins Gauge.
	SeriesGauge
	// SeriesGaugeFunc is a scrape-time computed gauge.
	SeriesGaugeFunc
	// SeriesHistogram is a power-of-two-bucket Histogram.
	SeriesHistogram
)

// NumHistogramBuckets is the fixed bucket count of every Histogram
// (one per power of two of an int64 observation). Exported so bulk
// readers can size per-bucket storage without depending on the
// HistogramSnapshot array type.
const NumHistogramBuckets = histBuckets

// Series is a read handle on one registered instrument instance. The
// handle stays valid for the life of the registry; reading through it
// takes no lock and allocates nothing (GaugeFunc series are as
// allocation-free as the registered fn).
type Series struct {
	// Name is the metric family name.
	Name string
	// Labels is the instance's label set (do not mutate).
	Labels []Label
	// Kind is the instrument class.
	Kind SeriesKind

	counter *Counter
	gauge   *Gauge // a Gauge, or a Table counter column's total
	fn      func() float64
	hist    *Histogram
}

// Scalar returns the series' current scalar value: the folded counter
// total, the gauge value, the gauge func's result, the histogram's
// observation count, or a table column's total as of the last collection.
func (s Series) Scalar() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	case s.fn != nil:
		return s.fn()
	case s.hist != nil:
		return float64(s.hist.Snapshot().Count)
	}
	return 0
}

// Hist returns the underlying histogram, or nil for scalar series.
func (s Series) Hist() *Histogram { return s.hist }

// Cumulative reports whether the series is monotonically non-decreasing
// by construction (counters and histogram observation counts), i.e.
// whether per-interval deltas and rates are meaningful.
func (s Series) Cumulative() bool {
	return s.Kind == SeriesCounter || s.Kind == SeriesHistogram
}

// Version returns a generation counter incremented on every instrument
// registration. A bulk reader holding a SeriesSnapshot is complete as
// long as Version has not moved since the snapshot was taken; a Table's
// rows come and go without moving it.
func (r *Registry) Version() uint64 { return r.version.Load() }

// SeriesSnapshot returns a handle for every registered instrument, in
// family registration order then instance creation order (the same
// order WritePrometheus renders). The returned slice is the caller's.
func (r *Registry) SeriesSnapshot() []Series {
	families, metrics := r.snapshotFamilies()
	var out []Series
	for i, f := range families {
		if t := f.table; t != nil {
			for ci, c := range t.cols {
				if c.Counter {
					out = append(out, Series{Name: c.Name, Kind: SeriesCounter, gauge: &t.totals[ci]})
				}
			}
		}
		for _, m := range metrics[i] {
			s := Series{Name: m.name, Labels: m.labels}
			switch m.kind {
			case kindCounter:
				s.Kind, s.counter = SeriesCounter, m.counter
			case kindGauge:
				s.Kind, s.gauge = SeriesGauge, m.gauge
			case kindGaugeFunc:
				s.Kind, s.fn = SeriesGaugeFunc, m.fn
			case kindHistogram:
				s.Kind, s.hist = SeriesHistogram, m.hist
			}
			out = append(out, s)
		}
	}
	return out
}
