// Package history gives the telemetry registry a time dimension: a
// dependency-free, fixed-size ring of periodic registry snapshots with
// a windowed rate/trend/quantile query API.
//
// Each Snapshot captures one sample per registered instrument into a
// preallocated slot: counters are delta-encoded (the slot stores the
// increment since the previous snapshot, so rates are a windowed sum),
// gauges are sampled raw, and histograms store per-bucket count diffs
// so quantiles can be answered over any trailing window rather than
// over the process lifetime. A telemetry.Table is tracked as one series
// per counter column — its total over the rows, from one walk of them
// per Snapshot — so the ring's size does not follow the row count and
// the series cap cannot shed a server-wide series behind per-row ones.
// After warmup — once every instrument has its buffers — the
// steady-state Snapshot performs zero allocations (gated by
// TestHistorySnapshotAllocBudget), so a server can snapshot itself
// every second forever without disturbing its own heap profile.
// A registration after warmup is detected via Registry.Version and
// resynced on the next Snapshot (which then allocates, once).
//
// The ring is the storage layer of the DSMS self-monitoring subsystem
// (internal/dsms/selfmon.go): the windowed rates and quantiles it
// serves become the signal values the server's self-streams track with
// the paper's own DKF machinery.
package history

import (
	"strings"
	"sync"
	"time"

	"streamkf/internal/telemetry"
)

// Options configure a Ring.
type Options struct {
	// Slots is the number of snapshots retained (default 128). With the
	// default 1s cadence that is ~2 minutes of history.
	Slots int
	// Every is the nominal snapshot period. The ring does not tick
	// itself — the owner drives Snapshot — but Every sizes derived
	// defaults (Slots from Window) and is reported by Meta.
	Every time.Duration
	// Window, when set with Every, derives Slots = ceil(Window/Every)
	// unless Slots is set explicitly.
	Window time.Duration
	// MaxSeries caps how many instrument instances are tracked
	// (default 8192). Series registered past the cap are ignored;
	// Dropped reports how many.
	MaxSeries int
}

func (o *Options) defaults() {
	if o.Every <= 0 {
		o.Every = time.Second
	}
	if o.Slots <= 0 {
		if o.Window > 0 {
			o.Slots = int((o.Window + o.Every - 1) / o.Every)
		} else {
			o.Slots = 128
		}
	}
	if o.Slots < 2 {
		o.Slots = 2
	}
	if o.MaxSeries <= 0 {
		o.MaxSeries = 8192
	}
}

const nb = telemetry.NumHistogramBuckets

// series is the ring's per-instrument state: the registry handle plus
// the slot-indexed sample buffers.
type series struct {
	key string
	src telemetry.Series

	// samples is the per-slot sample: raw value for gauges and gauge
	// funcs, per-interval delta for counters and histogram counts.
	samples []float64
	// last is the latest raw (cumulative, for counters) value.
	last    float64
	hasLast bool

	// Histogram extras: per-slot bucket diffs (slots * nb, flattened)
	// and per-slot sum diffs, with the previous snapshot retained for
	// delta encoding.
	buckets []int64
	sums    []float64
	prev    telemetry.HistogramSnapshot
}

// Ring is a fixed-size time-partitioned ring of registry snapshots.
// Snapshot and the query methods are safe for concurrent use.
type Ring struct {
	reg  *telemetry.Registry
	opts Options

	mu      sync.RWMutex
	version uint64
	series  []*series
	byKey   map[string]*series
	byName  map[string][]*series
	times   []int64 // unix nanos per slot
	head    int     // newest written slot
	filled  int
	dropped int
}

// New builds a ring over reg. The instrument population is synced
// lazily on the first Snapshot (and re-synced whenever the registry
// version moves).
func New(reg *telemetry.Registry, opts Options) *Ring {
	opts.defaults()
	return &Ring{
		reg:   reg,
		opts:  opts,
		byKey: make(map[string]*series),
		times: make([]int64, opts.Slots),
		head:  -1,
	}
}

// seriesKey builds the identity of one instrument instance, matching
// the registry's (name, labels) identity.
func seriesKey(name string, labels []telemetry.Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// resync rebuilds the tracked-series list from the registry, keeping
// the sample history of series that survived. Allocates; called only
// when the registry population changed.
func (r *Ring) resync(version uint64) {
	snap := r.reg.SeriesSnapshot()
	next := make([]*series, 0, len(snap))
	nextKey := make(map[string]*series, len(snap))
	nextName := make(map[string][]*series, len(snap))
	dropped := 0
	for _, src := range snap {
		if len(next) >= r.opts.MaxSeries {
			dropped++
			continue
		}
		k := seriesKey(src.Name, src.Labels)
		s := r.byKey[k]
		if s == nil {
			s = &series{key: k, src: src, samples: make([]float64, r.opts.Slots)}
			if src.Kind == telemetry.SeriesHistogram {
				s.buckets = make([]int64, r.opts.Slots*nb)
				s.sums = make([]float64, r.opts.Slots)
			}
		} else {
			s.src = src
		}
		next = append(next, s)
		nextKey[k] = s
		nextName[src.Name] = append(nextName[src.Name], s)
	}
	r.series, r.byKey, r.byName = next, nextKey, nextName
	r.dropped = dropped
	r.version = version
}

// capture samples the instrument into slot. First-sight cumulative
// series record a zero delta (the covered interval is unknown).
func (s *series) capture(slot int) {
	switch s.src.Kind {
	case telemetry.SeriesHistogram:
		snap := s.src.Hist().Snapshot()
		base := slot * nb
		if s.hasLast {
			for i := 0; i < nb; i++ {
				s.buckets[base+i] = snap.Counts[i] - s.prev.Counts[i]
			}
			s.sums[slot] = float64(snap.Sum - s.prev.Sum)
			s.samples[slot] = float64(snap.Count - s.prev.Count)
		} else {
			for i := 0; i < nb; i++ {
				s.buckets[base+i] = 0
			}
			s.sums[slot] = 0
			s.samples[slot] = 0
			s.hasLast = true
		}
		s.prev = snap
		s.last = float64(snap.Count)
	case telemetry.SeriesCounter:
		v := s.src.Scalar()
		if s.hasLast {
			s.samples[slot] = v - s.last
		} else {
			s.samples[slot] = 0
			s.hasLast = true
		}
		s.last = v
	default:
		v := s.src.Scalar()
		s.samples[slot] = v
		s.last = v
		s.hasLast = true
	}
}

// Snapshot captures one sample of every tracked instrument, stamped
// with now. Zero allocations in steady state (no registration since
// the previous Snapshot, and no registered GaugeFunc that itself
// allocates).
func (r *Ring) Snapshot(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.reg.Version(); v != r.version {
		r.resync(v)
	}
	r.reg.CollectTables()
	r.head = (r.head + 1) % len(r.times)
	if r.filled < len(r.times) {
		r.filled++
	}
	r.times[r.head] = now.UnixNano()
	for _, s := range r.series {
		s.capture(r.head)
	}
}

// slotAt returns the slot index k snapshots behind the newest
// (slotAt(0) == head). Caller holds the lock and has checked k < filled.
func (r *Ring) slotAt(k int) int {
	n := len(r.times)
	return ((r.head-k)%n + n) % n
}

// window resolves a trailing window to the included delta slots:
// newest-first slot offsets [0, count), plus the covered span. A slot's
// delta covers the interval since the previous snapshot, so offset k is
// included while the snapshot before it (k+1) is still within the
// window. Requires two filled slots; count == 0 means no usable span.
func (r *Ring) window(window time.Duration) (count int, span time.Duration) {
	if r.filled < 2 {
		return 0, 0
	}
	newest := r.times[r.slotAt(0)]
	for k := 0; k < r.filled-1; k++ {
		prev := r.times[r.slotAt(k+1)]
		if time.Duration(newest-prev) > window && k > 0 {
			break
		}
		count = k + 1
		span = time.Duration(newest - prev)
		if time.Duration(newest-prev) > window {
			break
		}
	}
	return count, span
}

// lookup resolves (name, labels) to series: the exact instance when
// labels are given, every instance of the family otherwise (so
// family-level queries sum across label values, e.g. all sources or
// all shards). The label match compares elementwise rather than
// building a key string, keeping the query paths allocation-free.
// Caller holds an RLock; the returned slice must not escape it — hence
// the single-series scratch parameter.
func (r *Ring) lookup(name string, labels []telemetry.Label, scratch *[1]*series) []*series {
	fam := r.byName[name]
	if len(labels) == 0 {
		return fam
	}
	for _, s := range fam {
		if labelsEqual(s.src.Labels, labels) {
			scratch[0] = s
			return scratch[:]
		}
	}
	return nil
}

// labelsEqual reports whether two label sets match exactly, in order.
func labelsEqual(a, b []telemetry.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deltaAt returns the series' per-interval delta at newest-first
// offset k: stored directly for cumulative series, derived from
// consecutive raw samples for gauges (meaningful for monotone gauges
// like high-water marks and engine drop totals).
func (r *Ring) deltaAt(s *series, k int) float64 {
	if s.src.Cumulative() {
		return s.samples[r.slotAt(k)]
	}
	return s.samples[r.slotAt(k)] - s.samples[r.slotAt(k+1)]
}

// Rate returns the per-second rate of the named series over the
// trailing window: the windowed delta sum divided by the covered span.
// With no labels it sums every instance of the family. Histograms rate
// their observation count. ok is false until two snapshots cover the
// series (or when it does not exist). Allocation-free.
func (r *Ring) Rate(name string, window time.Duration, labels ...telemetry.Label) (perSec float64, ok bool) {
	var scratch [1]*series
	r.mu.RLock()
	defer r.mu.RUnlock()
	ss := r.lookup(name, labels, &scratch)
	if len(ss) == 0 {
		return 0, false
	}
	count, span := r.window(window)
	if count == 0 || span <= 0 {
		return 0, false
	}
	var sum float64
	for _, s := range ss {
		for k := 0; k < count; k++ {
			sum += r.deltaAt(s, k)
		}
	}
	return sum / span.Seconds(), true
}

// Trend returns the newest n per-slot samples, oldest first: raw
// values for gauges, per-interval deltas for counters and histogram
// counts. With no labels the family's instances are summed per slot.
// Fewer than n slots may be returned early in the ring's life; nil
// with ok=false when the series does not exist. Allocates the result
// (query path, not snapshot path).
func (r *Ring) Trend(name string, n int, labels ...telemetry.Label) (samples []float64, ok bool) {
	var scratch [1]*series
	r.mu.RLock()
	defer r.mu.RUnlock()
	ss := r.lookup(name, labels, &scratch)
	if len(ss) == 0 || r.filled == 0 {
		return nil, len(ss) > 0
	}
	avail := r.filled
	cumulative := ss[0].src.Cumulative()
	if cumulative {
		avail-- // the oldest filled slot's delta covers an unknown span
	}
	if n > avail {
		n = avail
	}
	if n <= 0 {
		return nil, true
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		k := n - 1 - i // newest-first offset for the i-th oldest sample
		for _, s := range ss {
			if cumulative {
				out[i] += r.deltaAt(s, k)
			} else {
				out[i] += s.samples[r.slotAt(k)]
			}
		}
	}
	return out, true
}

// WindowQuantile returns an upper bound for the q-quantile of the
// named histogram's observations within the trailing window, resolved
// to the histogram's power-of-two buckets. With no labels it merges
// every instance of the family. ok is false when nothing was observed
// in the window. Allocation-free.
func (r *Ring) WindowQuantile(name string, window time.Duration, q float64, labels ...telemetry.Label) (bound float64, ok bool) {
	var scratch [1]*series
	r.mu.RLock()
	defer r.mu.RUnlock()
	ss := r.lookup(name, labels, &scratch)
	if len(ss) == 0 {
		return 0, false
	}
	count, _ := r.window(window)
	if count == 0 {
		return 0, false
	}
	var merged telemetry.HistogramSnapshot
	for _, s := range ss {
		if s.src.Kind != telemetry.SeriesHistogram {
			return 0, false
		}
		for k := 0; k < count; k++ {
			base := r.slotAt(k) * nb
			for i := 0; i < nb; i++ {
				c := s.buckets[base+i]
				merged.Counts[i] += c
				merged.Count += c
			}
		}
	}
	if merged.Count == 0 {
		return 0, false
	}
	return float64(merged.Quantile(q)), true
}

// Latest returns the series' most recently snapshotted raw value (the
// cumulative total for counters and histogram counts, the sampled
// value for gauges). With no labels the family's instances are summed.
func (r *Ring) Latest(name string, labels ...telemetry.Label) (v float64, ok bool) {
	var scratch [1]*series
	r.mu.RLock()
	defer r.mu.RUnlock()
	ss := r.lookup(name, labels, &scratch)
	if len(ss) == 0 {
		return 0, false
	}
	any := false
	for _, s := range ss {
		if s.hasLast {
			v += s.last
			any = true
		}
	}
	return v, any
}

// SeriesInfo identifies one tracked series, for enumeration surfaces
// (/metricsz).
type SeriesInfo struct {
	Name   string
	Labels []telemetry.Label
	Kind   telemetry.SeriesKind
}

// Series lists the tracked series in registry order. Query path;
// allocates.
func (r *Ring) Series() []SeriesInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]SeriesInfo, len(r.series))
	for i, s := range r.series {
		out[i] = SeriesInfo{Name: s.src.Name, Labels: s.src.Labels, Kind: s.src.Kind}
	}
	return out
}

// Meta reports the ring's shape: retained slot count, slots filled so
// far, the nominal cadence, the wall-clock span currently covered, and
// how many registry series were dropped past the MaxSeries cap.
func (r *Ring) Meta() (slots, filled int, every time.Duration, span time.Duration, dropped int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	slots, filled, every, dropped = len(r.times), r.filled, r.opts.Every, r.dropped
	if r.filled >= 2 {
		span = time.Duration(r.times[r.slotAt(0)] - r.times[r.slotAt(r.filled-1)])
	}
	return slots, filled, every, span, dropped
}
