// Package telemetry is a dependency-free runtime instrumentation
// library: atomic counters, gauges, fixed-bucket lock-free histograms,
// and a registry that renders Prometheus text exposition format without
// stopping writers.
//
// The design contract is that the *hot path is free*: Counter.Add,
// Gauge.Set and Histogram.Observe perform no allocation and take no
// lock, so the DKF ingest path can be instrumented without disturbing
// the allocation budgets the alloc-gate tests pin (TestFilterStepAllocBudget,
// TestTCPIngestAllocBudget). Counters are striped across padded shards (folded at
// scrape time) so concurrent writers on different cores do not bounce a
// single cache line; histograms use power-of-two buckets indexed by
// bits.Len64, so bucketing is one instruction instead of a search.
//
// All instrument methods are nil-receiver safe: a component whose
// telemetry is not wired up records into nil instruments at the cost of
// one branch, which keeps instrumentation unconditional at call sites.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// counterShard is one cache-line-padded stripe of a Counter. The padding
// keeps two shards from sharing a line, so writers on different cores do
// not invalidate each other.
type counterShard struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing counter striped over shards.
// Add/Inc are allocation-free and lock-free; Value folds the shards.
type Counter struct {
	shards []counterShard
}

// NewCounter returns a counter striped over a power-of-two number of
// shards derived from GOMAXPROCS. Prefer Registry.Counter, which also
// names and exposes it.
func NewCounter() *Counter {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n > 64 {
		n = 64
	}
	return &Counter{shards: make([]counterShard, n)}
}

// shard picks a stripe from the address of a stack variable: goroutine
// stacks are distinct and at least page-aligned, so shifting out the
// low bits spreads concurrent goroutines across shards without any
// runtime hook. The conversion to uintptr keeps the probe on the stack.
func (c *Counter) shard() *counterShard {
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) & uintptr(len(c.shards)-1)
	return &c.shards[i]
}

// Add increments the counter by delta. Nil-safe, allocation-free.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.shard().n.Add(delta)
}

// Inc increments the counter by one. Nil-safe, allocation-free.
func (c *Counter) Inc() { c.Add(1) }

// Value folds all shards into the current total. Safe against
// concurrent writers (the total is a consistent lower bound of any
// later read).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Gauge is a last-write-wins float64 instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe, allocation-free.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value (a common case for occupancies).
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add shifts the gauge by delta with a CAS loop — for up/down values
// tracked incrementally (active connections, window occupancy).
// Nil-safe, allocation-free.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the most recently stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of histogram buckets: one per power of two
// of an int64 observation (bits.Len64 yields 0..64).
const histBuckets = 65

// Histogram counts observations into fixed power-of-two buckets: bucket
// i holds observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v <
// 2^i (bucket 0 holds v <= 0). Observe is lock-free and allocation-free;
// there is no configuration, so every histogram can absorb any int64
// (nanosecond latencies, occupancies, byte sizes) without saturating.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// Observe records one value. Nil-safe, allocation-free, lock-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	var i int
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Counts[i] is the number of observations in bucket i, whose upper
	// bound is 2^i - 1 (Counts[0] counts v <= 0).
	Counts [histBuckets]int64
	Sum    int64
	Count  int64
}

// Snapshot copies the bucket counts without stopping writers. The copy
// is not a single atomic cut across buckets, but each bucket value is a
// valid count and Count is their exact sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of
// the observed distribution, resolved to bucket granularity.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			return (int64(1) << uint(i)) - 1
		}
	}
	return math.MaxInt64
}

// Label is one name/value pair attached to a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instrument instance (a name plus one label
// set).
type metric struct {
	name   string
	labels []Label
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
	// scale divides histogram bucket bounds and sums at exposition
	// time (see HistogramScale); <= 1 means raw observed units.
	scale float64
}

// family groups every instrument sharing a metric name, so the
// exposition emits one HELP/TYPE header per name — or stands for all the
// families of one Table (table.go), which renders itself.
type family struct {
	name    string
	help    string
	kind    metricKind
	metrics []*metric
	table   *table
}

// Registry names instruments and renders them. Instrument creation
// takes a lock; the instruments themselves never do. Snapshots read the
// atomics in place, so scraping never stops writers.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
	byKey    map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family), byKey: make(map[string]*metric)}
}

// key builds the identity of one instrument instance.
func key(name string, labels []Label) string {
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

// register returns the existing instrument for (name, labels) or
// installs the one built by mk. Kind mismatches panic: they are
// programming errors, not runtime conditions.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if m, ok := r.byKey[k]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with a different type", name))
		}
		return m
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind || f.table != nil {
		panic(fmt.Sprintf("telemetry: metric family %s holds a different type", name))
	}
	m := mk()
	m.name = name
	m.kind = kind
	m.labels = append([]Label(nil), labels...)
	f.metrics = append(f.metrics, m)
	r.byKey[k] = m
	return m
}

// Counter returns the counter registered under name and labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, kindCounter, labels, func() *metric {
		return &metric{counter: NewCounter()}
	})
	return m.counter
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, labels, func() *metric {
		return &metric{gauge: &Gauge{}}
	})
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for derived signals (ratios) whose inputs are already counted.
// fn must be safe to call concurrently with writers.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels, func() *metric {
		return &metric{fn: fn}
	})
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	m := r.register(name, help, kindHistogram, labels, func() *metric {
		return &metric{hist: &Histogram{}}
	})
	return m.hist
}

// HistogramScale returns the histogram registered under name and
// labels, creating it on first use with an exposition scale: observed
// values are recorded raw (keeping Observe lock- and allocation-free),
// but the Prometheus rendering divides bucket upper bounds and the
// _sum sample by scale. A latency histogram observing nanoseconds with
// scale 1e9 therefore exposes honest seconds, per convention, without
// a hot-path division.
func (r *Registry) HistogramScale(name, help string, scale float64, labels ...Label) *Histogram {
	m := r.register(name, help, kindHistogram, labels, func() *metric {
		return &metric{hist: &Histogram{}, scale: scale}
	})
	return m.hist
}

// HistogramFor returns the histogram registered under name and labels,
// without creating one. Status surfaces use it to report quantiles for
// series some other component may or may not have registered — going
// through Histogram instead would mint an empty series as a side effect
// of looking.
func (r *Registry) HistogramFor(name string, labels ...Label) (*Histogram, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.byKey[key(name, labels)]
	if !ok || m.kind != kindHistogram {
		return nil, false
	}
	return m.hist, true
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// writeLabels renders {k="v",...}, with extra appended after the
// metric's own labels (used for histogram le bounds).
func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := len(labels) + len(extra)
	if all == 0 {
		return
	}
	b.WriteByte('{')
	n := 0
	for _, set := range [][]Label{labels, extra} {
		for _, l := range set {
			if n > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
			n++
		}
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshotFamilies copies the family list and each family's instrument
// list under the lock; the instruments themselves — and a Table's rows,
// whose source must not be called under the registry's lock — are read
// lock-free afterwards.
func (r *Registry) snapshotFamilies() ([]*family, [][]*metric) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	families := append([]*family(nil), r.families...)
	metrics := make([][]*metric, len(families))
	for i, f := range families {
		metrics[i] = append([]*metric(nil), f.metrics...)
	}
	return families, metrics
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Families appear in registration
// order; instruments within a family in creation order. Writers are
// never stopped: values are read from the live atomics.
func (r *Registry) WritePrometheus(w io.Writer) error {
	families, metrics := r.snapshotFamilies()

	var b strings.Builder
	for i, f := range families {
		if f.table != nil {
			f.table.write(&b)
			continue
		}
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, typ)
		for _, m := range metrics[i] {
			switch m.kind {
			case kindCounter:
				b.WriteString(m.name)
				writeLabels(&b, m.labels)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(m.counter.Value(), 10))
				b.WriteByte('\n')
			case kindGauge:
				b.WriteString(m.name)
				writeLabels(&b, m.labels)
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.gauge.Value()))
				b.WriteByte('\n')
			case kindGaugeFunc:
				b.WriteString(m.name)
				writeLabels(&b, m.labels)
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.fn()))
				b.WriteByte('\n')
			case kindHistogram:
				s := m.hist.Snapshot()
				var cum int64
				for bi, c := range s.Counts {
					if c == 0 {
						continue
					}
					cum += c
					// Upper bound of bucket bi is 2^bi - 1 (bucket 0 is
					// v <= 0). Only occupied buckets are emitted; the
					// cumulative counts stay exact because cum carries
					// the skipped (empty) buckets' zero contribution.
					bound := float64(int64(1)<<uint(bi)) - 1
					if bi == 0 {
						bound = 0
					}
					if m.scale > 1 {
						bound /= m.scale
					}
					b.WriteString(m.name)
					b.WriteString("_bucket")
					writeLabels(&b, m.labels, L("le", formatFloat(bound)))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatInt(cum, 10))
					b.WriteByte('\n')
				}
				b.WriteString(m.name)
				b.WriteString("_bucket")
				writeLabels(&b, m.labels, L("le", "+Inf"))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.Count, 10))
				b.WriteByte('\n')
				b.WriteString(m.name)
				b.WriteString("_sum")
				writeLabels(&b, m.labels)
				b.WriteByte(' ')
				if m.scale > 1 {
					b.WriteString(formatFloat(float64(s.Sum) / m.scale))
				} else {
					b.WriteString(strconv.FormatInt(s.Sum, 10))
				}
				b.WriteByte('\n')
				b.WriteString(m.name)
				b.WriteString("_count")
				writeLabels(&b, m.labels)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.Count, 10))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Get returns the scraped value of the named instrument with exactly
// the given labels, for tests asserting counter/telemetry agreement.
func (r *Registry) Get(name string, labels ...Label) (float64, bool) {
	r.mu.RLock()
	m, ok := r.byKey[key(name, labels)]
	f := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		if f != nil && f.table != nil && len(labels) == 1 && labels[0].Key == f.table.label {
			return f.table.get(name, labels[0].Value)
		}
		return 0, false
	}
	return m.value(), true
}

// value is the instrument's current scalar: the counter's total, the
// gauge's or gauge func's value, the histogram's observation count.
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.counter.Value())
	case kindGauge:
		return m.gauge.Value()
	case kindGaugeFunc:
		return m.fn()
	}
	return float64(m.hist.Snapshot().Count)
}
