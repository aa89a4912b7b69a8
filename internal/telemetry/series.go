package telemetry

// Family reads: what a reader that samples a few metric families on a
// cadence (the self-monitor, internal/dsms/selfmon.go) needs of the
// registry — one family's total, or its merged histogram — at the cost
// of that family alone, however many others the registry holds.

// SeriesKind identifies the instrument class of a listed series, in the
// registry's own order of instrument kinds.
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

// Series names one registered instrument instance.
type Series struct {
	// Name is the metric family name.
	Name string
	// Labels is the instance's label set (do not mutate).
	Labels []Label
	// Kind is the instrument class.
	Kind SeriesKind
}

// SeriesSnapshot lists every registered instrument, in family
// registration order then instance creation order (the same order
// WritePrometheus renders); a Table stands as one unlabelled series per
// counter column. The returned slice is the caller's.
func (r *Registry) SeriesSnapshot() []Series {
	families, metrics := r.snapshotFamilies()
	var out []Series
	for i, f := range families {
		if t := f.table; t != nil {
			for _, c := range t.cols {
				if c.Counter {
					out = append(out, Series{Name: c.Name, Kind: SeriesCounter})
				}
			}
		}
		for _, m := range metrics[i] {
			out = append(out, Series{Name: m.name, Labels: m.labels, Kind: SeriesKind(m.kind)})
		}
	}
	return out
}

// family returns the family registered under name, and its instances as
// of now (append-only: the elements below len never change).
func (r *Registry) family(name string) (*family, []*metric) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f := r.byName[name]
	if f == nil {
		return nil, nil
	}
	return f, f.metrics
}

// FamilyTotal sums the current values of the named family's instances,
// leaving out any instance that carries a label of skip. A Table's
// counter column reads its total over the rows, from one walk of them.
// ok is false when no counter, gauge or counter column has the name.
func (r *Registry) FamilyTotal(name string, skip ...Label) (total float64, ok bool) {
	f, ms := r.family(name)
	switch {
	case f == nil:
		return 0, false
	case f.table != nil:
		return f.table.total(name)
	case f.kind == kindHistogram:
		return 0, false
	}
	for _, m := range ms {
		if !hasLabel(m.labels, skip) {
			total += m.value()
		}
	}
	return total, true
}

// FamilyHistogram merges the bucket counts of the named histogram
// family's instances; ok is false when no histogram has the name.
func (r *Registry) FamilyHistogram(name string) (merged HistogramSnapshot, ok bool) {
	f, ms := r.family(name)
	if f == nil || f.table != nil || f.kind != kindHistogram {
		return merged, false
	}
	for _, m := range ms {
		s := m.hist.Snapshot()
		for i, c := range s.Counts {
			merged.Counts[i] += c
		}
		merged.Count += s.Count
		merged.Sum += s.Sum
	}
	return merged, true
}

// hasLabel reports whether labels holds any label of set.
func hasLabel(labels, set []Label) bool {
	for _, l := range labels {
		for _, s := range set {
			if l == s {
				return true
			}
		}
	}
	return false
}
