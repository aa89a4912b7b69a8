package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The traced pass: after the timed phases, a workload replays a prefix
// of its inputs single-threaded, calling each layer's public functions
// in the order a reading crosses them and recording a span around every
// call. Spans stay in memory and are written out when the pass ends.

// spanName names the call a span covers.
type spanName uint8

const (
	spReading spanName = iota // root of one reading's spans in the replay
	spKalmanStep
	spProcessSuppressed
	spProcessSent
	spEncode
	spDecode
	spApply
	spHandle
	spHandleDurable
	spAnswer
	spSyncRTT
	spQueryRTT
	spPipelined
	spUDPSend
	spEngineOffer
	spEngineHandoff
	spWALAppend
	spWALAppendBatch
	spWALSync
	spOwner
	spRoutedRTT
	spShardRTT
	spRoutedPipelined
	spAggregate
	spEmpty // nothing between begin and end: the cost of the two clock reads
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"reading", "kalman.step", "core.process_suppressed", "core.process_sent",
	"wire.encode", "wire.decode", "core.apply", "dsms.handle_update", "dsms.handle_update_durable",
	"dsms.answer", "dsms.tcp_sync_rtt", "dsms.query_rtt", "dsms.tcp_pipelined", "dsms.udp_send",
	"engine.offer", "engine.handoff", "wal.append", "wal.append_batch", "wal.sync",
	"cluster.owner", "cluster.routed_sync_rtt", "cluster.shard_sync_rtt", "cluster.routed_pipelined", "cluster.aggregate_answer",
	"empty",
}

type span struct {
	name       spanName
	start, end int64 // ns since the tracer's origin
	parent     int32 // index of the span that caused this one, -1 for none
	reading    int32 // the reading or call the span belongs to
}

// tracer records spans. A nil tracer records nothing, which is how the
// untraced replay runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)} }

func (t *tracer) begin(name spanName, parent int32, reading int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, reading: int32(reading), start: int64(time.Since(t.origin))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].end = int64(time.Since(t.origin))
	}
}

// rename settles a span's name once the call's outcome is known.
func (t *tracer) rename(id int32, name spanName) {
	if t != nil {
		t.spans[id].name = name
	}
}

// durations returns, per span name, every span's length in ns.
func (t *tracer) durations() [numSpanNames][]float64 {
	var d [numSpanNames][]float64
	for _, s := range t.spans {
		d[s.name] = append(d[s.name], float64(s.end-s.start))
	}
	return d
}

// write puts the spans in a CSV file, one line per span; a span's id is
// its line number after the header, counted from 0.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,reading")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.name], s.start, s.end, s.parent, s.reading)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Sizes of the traced pass at -seconds 20; they scale like the phases.
const (
	replayReadings = 16384
	rttCalls       = 2000
	pipelinedCalls = 40000
	kitCalls       = 4096
)

// replay drives n readings of the workload's input through the in-process
// pipeline and returns the wall time it took.
func replay(w workload, block []float64, n int, tr *tracer, walDir string) (time.Duration, error) {
	p, err := newPipeline(w.model, w.delta, walDir)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	type stage struct {
		name spanName
		call func() error
	}
	stages := []stage{{spEncode, p.Encode}, {spDecode, p.Decode}, {spApply, p.Apply}, {spHandle, p.Handle}}
	if walDir != "" {
		stages = append(stages, stage{spHandleDurable, p.HandleDurable})
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		v := block[i&blockMask]
		root := tr.begin(spReading, -1, i)
		id := tr.begin(spKalmanStep, root, i)
		err := p.Step(v)
		tr.end(id)
		sent := true
		if w.fanin > 0 {
			p.Raw(i, v)
		} else if err == nil {
			id = tr.begin(spProcessSuppressed, root, i)
			sent, err = p.Process(i, v)
			tr.end(id)
			if sent {
				tr.rename(id, spProcessSent)
			}
		}
		for k := 0; sent && err == nil && k < len(stages); k++ {
			id = tr.begin(stages[k].name, root, i)
			err = stages[k].call()
			tr.end(id)
		}
		if i%16 == 15 && err == nil {
			id = tr.begin(spAnswer, root, i)
			err = p.Answer(i)
			tr.end(id)
		}
		tr.end(root)
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// mallocs returns the process's cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapInUse returns the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// roundTrip is one window-1 Offer and the Drain that waits for its ack.
func roundTrip(tr *tracer, name spanName, src source, i int, v float64) error {
	id := tr.begin(name, -1, i)
	_, err := src.Offer(i, v)
	if err == nil {
		err = src.Drain()
	}
	tr.end(id)
	return err
}

// tcpPass measures a direct server's TCP source and query connections on
// real sockets: n window-1 round trips and n query round trips.
func tcpPass(tr *tracer, sys *system, w workload, dense []float64, n int) error {
	if err := sys.register(queryID("rtt"), "rtt", w.model, 1e-9); err != nil {
		return err
	}
	src, err := sys.dialSource("rtt", 1)
	if err != nil {
		return err
	}
	defer src.Close()
	for i := 0; i < n; i++ {
		if err := roundTrip(tr, spSyncRTT, src, i, dense[i&blockMask]); err != nil {
			return err
		}
	}
	q, err := sys.dialQuery()
	if err != nil {
		return err
	}
	defer q.Close()
	for i := 0; i < n; i++ {
		id := tr.begin(spQueryRTT, -1, i)
		_, err := q.Ask(queryID("rtt"), n-1)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// pipelinedPass streams n dense readings through one default-window
// connection and returns the wall time and the process's allocations
// per update.
func pipelinedPass(tr *tracer, sys *system, w workload, dense []float64, name spanName, n int) (nsPerUpdate, allocsPerUpdate float64, err error) {
	if err := sys.register(queryID("pipe"), "pipe", w.model, 1e-9); err != nil {
		return 0, 0, err
	}
	pipe, err := sys.dialSource("pipe", 0)
	if err != nil {
		return 0, 0, err
	}
	defer pipe.Close()
	m0 := mallocs()
	id := tr.begin(name, -1, 0)
	for i := 0; i < n && err == nil; i++ {
		_, err = pipe.Offer(i, dense[i&blockMask])
	}
	if err == nil {
		err = pipe.Drain()
	}
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	_, updates := pipe.Counts()
	s := tr.spans[id]
	return float64(s.end-s.start) / float64(updates), float64(mallocs()-m0) / float64(updates), nil
}

// tracedPass produces every per-layer metric of a workload. Layers the
// workload bypasses report 0.
func tracedPass(w workload, o options, ph phases) ([]metric, error) {
	scale := o.seconds / baseSeconds
	scaled := func(n int) int {
		if n = int(float64(n) * scale); n < 64 {
			n = 64
		}
		return n
	}
	tmp, err := os.MkdirTemp("", "dkf-e2e-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	walDir := func(name string) string {
		if !w.sut.durable {
			return ""
		}
		return filepath.Join(tmp, name)
	}
	block, dense := genBlock(o.seed, w.signal), genBlock(o.seed, walk)
	m := map[string]float64{}

	// The in-process pipeline, untraced and then traced.
	n := scaled(replayReadings)
	untraced, err := replay(w, block, n, nil, walDir("untraced"))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	for i := 0; i < kitCalls; i++ {
		tr.end(tr.begin(spEmpty, -1, i))
	}
	traced, err := replay(w, block, n, tr, walDir("traced"))
	if err != nil {
		return nil, err
	}
	m["trace.overhead_share"] = float64(traced)/float64(untraced) - 1
	if w.fanin == 0 {
		p, err := newPipeline(w.model, w.delta, "")
		if err != nil {
			return nil, err
		}
		m0 := mallocs()
		for i := 0; i < n; i++ {
			if _, err := p.Process(i, block[i&blockMask]); err != nil {
				return nil, err
			}
		}
		m["core.process_allocs"] = float64(mallocs()-m0) / float64(n)
	}

	// Real sockets: a direct server of the workload's durability.
	direct, err := openSystem(sutSpec{durable: w.sut.durable}, walDir("direct"))
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	if err := tcpPass(tr, direct, w, dense, scaled(rttCalls)); err != nil {
		return nil, err
	}
	m["dsms.tcp_pipelined_ns"], m["dsms.tcp_allocs_per_update"], err = pipelinedPass(tr, direct, w, dense, spPipelined, scaled(pipelinedCalls))
	if err != nil {
		return nil, err
	}

	if w.sut.udp {
		if err := udpPass(tr, w, o, scale, m); err != nil {
			return nil, err
		}
	}
	if w.sut.durable {
		if err := walPass(tr, filepath.Join(tmp, "wal"), scaled(kitCalls), m); err != nil {
			return nil, err
		}
		m["wal.checkpoint_ms"] = ph.checkpointMS
	}
	if w.sut.routed {
		if err := clusterPass(tr, w, dense, scaled(rttCalls), scaled(pipelinedCalls), m); err != nil {
			return nil, err
		}
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.out, w.name+".spans.csv")); err != nil {
		return nil, err
	}

	// Medians per call, less what the two clock reads of a span cost.
	d := tr.durations()
	clock := median(d[spEmpty])
	ns := func(name spanName) float64 {
		if len(d[name]) == 0 {
			return 0
		}
		if v := median(d[name]) - clock; v > 0 {
			return v
		}
		return 0
	}
	// perReading is what the calls of one name cost per reading of the
	// replay: their median times how often a reading makes them.
	perReading := func(name spanName) float64 { return ns(name) * float64(len(d[name])) / float64(n) }
	m["kalman.step_ns"] = ns(spKalmanStep)
	m["core.process_suppressed_ns"] = ns(spProcessSuppressed)
	m["core.process_sent_ns"] = ns(spProcessSent)
	m["core.apply_ns"] = ns(spApply)
	m["core.update_ratio"] = ph.updateRatio
	m["wire.encode_ns"] = ns(spEncode)
	m["wire.decode_ns"] = ns(spDecode)
	m["wire.update_frame_bytes"] = float64(ph.frameBytes)
	m["dsms.handle_update_ns"] = ns(spHandle)
	m["dsms.handle_update_durable_ns"] = ns(spHandleDurable)
	m["dsms.answer_ns"] = ns(spAnswer)
	m["dsms.tcp_sync_rtt_ns"] = ns(spSyncRTT)
	m["dsms.query_rtt_ns"] = ns(spQueryRTT)
	m["engine.offer_ns"] = ns(spEngineOffer)
	m["engine.handoff_ns"] = ns(spEngineHandoff)
	m["engine.ring_hwm"] = float64(ph.engine.ringHWM)
	m["engine.shed"] = float64(ph.engine.shed)
	m["engine.stale_dropped"] = float64(ph.engine.stale)
	m["dsms.udp_updates_per_datagram"] = ph.engine.perDatagram
	m["dsms.udp_rx_batch"] = ph.engine.rxBatch
	m["wal.append_ns"] = ns(spWALAppend)
	m["wal.append_batch_ns"] = ns(spWALAppendBatch) / walBatch
	m["wal.sync_ns"] = ns(spWALSync)
	m["cluster.owner_ns"] = ns(spOwner)
	m["cluster.aggregate_answer_ns"] = ns(spAggregate)
	if w.sut.routed {
		m["cluster.forward_hop_ns"] = ns(spRoutedRTT) - ns(spShardRTT)
	}

	// The layer budget: what the in-process layers cost per reading of
	// the replay, against the CPU the saturate phase spent per reading.
	// kalman.step and core.apply are inside process and handle_update and
	// are not added again.
	handle := spHandle
	if w.sut.durable {
		handle = spHandleDurable
	}
	layers := 0.0
	for _, name := range []spanName{spProcessSuppressed, spProcessSent, spEncode, spDecode, handle} {
		layers += perReading(name)
	}
	if w.fanin > 0 {
		layers += m["dsms.udp_send_ns"] - clock - ns(spEncode) + ns(spEngineOffer)
	}
	m["layers.sum_ns_per_reading"] = layers
	m["layers.unattributed_share"] = 1 - layers/ph.cpuNsPerReading

	lat, lag := sorted(ph.probe.latUS), sorted(ph.lagUS)
	m["probe.answer_latency_p99_us"] = percentile(lat, 0.99)
	m["probe.samples"] = float64(len(lat))
	m["probe.over_100ms"] = float64(ph.probe.slow)
	m["probe.unsent"] = float64(ph.probe.unsent)
	m["gen.lag_p99_us"] = percentile(lag, 0.99)

	out := make([]metric, len(perLayerUnits))
	for i, u := range perLayerUnits {
		out[i] = metric{u.name, m[u.name], u.unit}
	}
	return out, nil
}

// perLayerUnits lists every per-layer metric in report order.
var perLayerUnits = []struct{ name, unit string }{
	{"kalman.step_ns", "ns"},
	{"core.process_suppressed_ns", "ns"},
	{"core.process_sent_ns", "ns"},
	{"core.process_allocs", "count"},
	{"core.update_ratio", "ratio"},
	{"core.apply_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.update_frame_bytes", "B"},
	{"dsms.handle_update_ns", "ns"},
	{"dsms.handle_update_durable_ns", "ns"},
	{"dsms.answer_ns", "ns"},
	{"dsms.tcp_sync_rtt_ns", "ns"},
	{"dsms.tcp_pipelined_ns", "ns"},
	{"dsms.tcp_allocs_per_update", "count"},
	{"dsms.query_rtt_ns", "ns"},
	{"dsms.udp_send_ns", "ns"},
	{"dsms.udp_updates_per_datagram", "count"},
	{"dsms.udp_rx_batch", "count"},
	{"dsms.bytes_per_source", "B"},
	{"engine.offer_ns", "ns"},
	{"engine.handoff_ns", "ns"},
	{"engine.batch_size", "count"},
	{"engine.ring_hwm", "count"},
	{"engine.shed", "count"},
	{"engine.stale_dropped", "count"},
	{"engine.p1_readings_per_s", "1/s"},
	{"wal.append_ns", "ns"},
	{"wal.append_batch_ns", "ns"},
	{"wal.bytes_per_update", "B"},
	{"wal.sync_ns", "ns"},
	{"wal.checkpoint_ms", "ms"},
	{"cluster.owner_ns", "ns"},
	{"cluster.forward_hop_ns", "ns"},
	{"cluster.routed_allocs_per_update", "count"},
	{"cluster.aggregate_answer_ns", "ns"},
	{"cluster.subquery_count", "count"},
	{"layers.sum_ns_per_reading", "ns"},
	{"layers.unattributed_share", "ratio"},
	{"probe.answer_latency_p99_us", "us"},
	{"probe.samples", "count"},
	{"probe.over_100ms", "count"},
	{"probe.unsent", "count"},
	{"gen.lag_p99_us", "us"},
	{"trace.overhead_share", "ratio"},
}

// udpPass measures the datagram sender, the bare engine, the memory a
// registered stream holds, and the workload's saturate phase on one core.
func udpPass(tr *tracer, w workload, o options, scale float64, m map[string]float64) error {
	// Memory per registered and bootstrapped stream, as dkf-bench -fanin
	// counts it.
	base := heapInUse()
	r, err := setup(w, o.seed, 0)
	if err != nil {
		return err
	}
	m["dsms.bytes_per_source"] = float64(heapInUse()-base) / float64(w.fanin)
	// The sender's cost per update, outside the wait for the window. A
	// mean, not a median: one send in a few hundred carries the syscall.
	c := r.conns[0]
	tx := c.loader.(*faninLoader)
	ids := tx.ids
	n := int(float64(pipelinedCalls) * scale)
	sending := 0.0
	for i := c.next; i < c.next+n && err == nil; i++ {
		k, seq := i%len(ids), i/len(ids)
		id := tr.begin(spUDPSend, -1, i)
		err = tx.tx.Send(ids[k], seq, tx.value(k, seq))
		tr.end(id)
		sending += float64(tr.spans[id].end - tr.spans[id].start)
		if i%udpWindow == 0 {
			r.sys.waitInFlight(udpWindow)
		}
	}
	if err == nil {
		err = tx.drain()
	}
	m["dsms.udp_send_ns"] = sending / float64(n)
	r.close()
	if err != nil {
		return err
	}

	k := newEngineKit()
	defer k.Close()
	for i := 0; i < kitCalls; i++ {
		id := tr.begin(spEngineHandoff, -1, i)
		err := k.Ping()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	for i := 0; i < 16*kitCalls; i++ {
		id := tr.begin(spEngineOffer, -1, i)
		err := k.Offer()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	k.Quiesce()
	m["engine.batch_size"] = k.BatchSize()

	// The single-threaded baseline: half the saturate phase on one core.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	p1, err := setup(w, o.seed, 0)
	if err != nil {
		return err
	}
	defer p1.close()
	sat, err := p1.saturate(int(float64(w.satCount)*scale/2), seconds(o.seconds/2), nil)
	if err != nil {
		return err
	}
	m["engine.p1_readings_per_s"] = quantile(sat.rates.raw(), undisturbedRate)
	return nil
}

// walPass measures a bare write-ahead log with the workload's policy.
func walPass(tr *tracer, dir string, n int, m map[string]float64) error {
	k, err := newWALKit(dir)
	if err != nil {
		return err
	}
	defer k.Close()
	for i := 0; i < n; i++ {
		id := tr.begin(spWALAppend, -1, i)
		err := k.Append()
		tr.end(id)
		if err != nil {
			return err
		}
		if i%256 == 255 {
			id := tr.begin(spWALSync, -1, i)
			err := k.Sync()
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	for i := 0; i < n/walBatch; i++ {
		id := tr.begin(spWALAppendBatch, -1, i)
		err := k.AppendBatch()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	m["wal.bytes_per_update"] = k.BytesPerRecord()
	return nil
}

// clusterPass measures the router: placement, the forward hop on real
// sockets, and the cross-shard aggregate.
func clusterPass(tr *tracer, w workload, dense []float64, n, nPipelined int, m map[string]float64) error {
	sys, err := openSystem(w.sut, "")
	if err != nil {
		return err
	}
	defer sys.Close()
	var members []string
	shards := map[int]bool{}
	for i := 0; i < aggMembers; i++ {
		members = append(members, fmt.Sprintf("member-%02d", i))
		id := tr.begin(spOwner, -1, i)
		shard := sys.owner(members[i])
		tr.end(id)
		shards[shard] = true
	}
	for i := aggMembers; i < kitCalls; i++ {
		id := tr.begin(spOwner, -1, i)
		sys.owner(members[i%aggMembers])
		tr.end(id)
	}
	m["cluster.subquery_count"] = float64(len(shards))
	if err := sys.registerSum(aggQuery, members, w.model, w.delta); err != nil {
		return err
	}
	for i, id := range members {
		src, err := sys.dialSource(id, 1)
		if err != nil {
			return err
		}
		_, err = src.Offer(0, float64(i))
		if err == nil {
			err = src.Drain()
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		id := tr.begin(spAggregate, -1, i)
		err := sys.routerAggregate(aggQuery)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	// The forward hop: the same round trip through the router and straight
	// to a shard, turn and turn about so that both see the same machine.
	if err := sys.register(queryID("routed"), "routed", w.model, 1e-9); err != nil {
		return err
	}
	routed, err := sys.dialSource("routed", 1)
	if err != nil {
		return err
	}
	defer routed.Close()
	shard, err := sys.dialShard("shard", w.model, 1e-9)
	if err != nil {
		return err
	}
	defer shard.Close()
	for i := 0; i < n; i++ {
		if err := roundTrip(tr, spRoutedRTT, routed, i, dense[i&blockMask]); err != nil {
			return err
		}
		if err := roundTrip(tr, spShardRTT, shard, i, dense[i&blockMask]); err != nil {
			return err
		}
	}
	_, m["cluster.routed_allocs_per_update"], err = pipelinedPass(tr, sys, w, dense, spRoutedPipelined, nPipelined)
	return err
}
