package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"
)

const (
	// The routed workload's reader asks one sum aggregate over aggMembers
	// streams, placed on both shards, every aggEvery, in both timed phases.
	aggMembers = 16
	aggQuery   = "agg"
	aggEvery   = time.Second / 2000
	// slices is how many equal parts each timed phase is cut into. Every
	// metric is computed per part and the median over the parts reported.
	slices = 20

	probeID    = "probe"
	probeDelta = 1.0
	probeEvery = time.Millisecond // 1,000 probes/s
	// probeLimit is how long one probe waits, from its own start, for the
	// server to apply its reading; past it the probe has failed. The issue
	// set 100 ms for the whole operation. On the shared host the process is
	// now and then not run for longer than that; those are late answers,
	// not wrong ones, so operations slower than slowLimit from when they
	// were due are counted (probe.over_100ms) and do not fail. How late an
	// operation may be is bounded by its window: openLoop gives up at the
	// window's end and counts what it did not send (probe.unsent).
	probeLimit = 5 * time.Second
	slowLimit  = 100 * time.Millisecond

	// settleSteps repeats of one value bring a raw constant-model stream
	// to within 1e-9 of it: each applied update closes 62% of the gap.
	settleSteps = 24
	// settleTries bounds how long a filtered stream may take to predict a
	// repeated value within δ.
	settleTries = 4096
)

func queryID(sourceID string) string { return "q/" + sourceID }

// final is one answer the server must give when the run ends.
type final struct {
	query string
	seq   int
	want  float64
	delta float64
}

// loader is the load one source connection offers: its i-th reading is
// always the same reading for a given seed.
type loader interface {
	offer(i int) error
	// flush puts on the wire what the connection still buffers.
	flush() error
	// drain returns once the server has applied everything offered.
	drain() error
	// settle repeats each stream's last value from reading i on until the
	// server's answer must be within δ of it, and says what to check. It
	// returns the next reading index.
	settle(i int) ([]final, int, error)
	counts() (readings, updates int)
	frameBytes() int // wire size of one of its updates
	close() error
}

// tcpLoader is one filtered stream on one source connection.
type tcpLoader struct {
	id    string
	src   source
	block []float64
	off   int // streams start at different places of the block
	delta float64
}

func (l *tcpLoader) offer(i int) error {
	_, err := l.src.Offer(i, l.block[(i+l.off)&blockMask])
	return err
}
func (l *tcpLoader) flush() error       { return nil } // the agent's ack clock flushes
func (l *tcpLoader) drain() error       { return l.src.Drain() }
func (l *tcpLoader) counts() (int, int) { return l.src.Counts() }
func (l *tcpLoader) frameBytes() int    { return updateFrameBytes(l.id) }
func (l *tcpLoader) close() error       { return l.src.Close() }

// settle offers the last value again until the source suppresses it:
// from then on the protocol promises an answer within δ of it.
func (l *tcpLoader) settle(i int) ([]final, int, error) {
	v := l.block[(i-1+l.off)&blockMask]
	for try := 0; try < settleTries; try++ {
		sent, err := l.src.Offer(i, v)
		if err != nil {
			return nil, i, err
		}
		i++
		if !sent {
			return []final{{queryID(l.id), i - 1, v, l.delta}}, i, l.src.Drain()
		}
	}
	return nil, i, fmt.Errorf("stream %s still sends a repeated value after %d readings", l.id, settleTries)
}

// faninLoader sends the raw updates of many streams round-robin through
// one batcher, closed on the engine's applied watermark.
type faninLoader struct {
	tx    *fanin
	sys   *system
	ids   []string
	first int // index of ids[0] among all fan-in streams
	block []float64
	delta float64
	sent  int
}

func (l *faninLoader) value(k, seq int) float64 {
	return float64(l.first+k) + l.block[(seq+l.first+k)&blockMask]
}

func (l *faninLoader) offer(i int) error {
	k, seq := i%len(l.ids), i/len(l.ids)
	return l.send(k, seq, l.value(k, seq))
}

// send hands one update to the batcher and then keeps to the window.
func (l *faninLoader) send(k, seq int, v float64) error {
	if err := l.tx.Send(l.ids[k], seq, v); err != nil {
		return err
	}
	l.sent++
	if l.sent%udpWindow == 0 {
		l.sys.waitInFlight(udpWindow)
	}
	return nil
}

func (l *faninLoader) flush() error { return l.tx.Flush() }

func (l *faninLoader) drain() error {
	err := l.tx.Flush()
	l.sys.waitInFlight(0)
	return err
}
func (l *faninLoader) counts() (int, int) { return l.sent, l.sent }
func (l *faninLoader) frameBytes() int    { return updateFrameBytes(l.ids[0]) }
func (l *faninLoader) close() error       { return l.tx.Close() }

func (l *faninLoader) settle(i int) ([]final, int, error) {
	n := len(l.ids)
	finals := make([]final, n)
	for k := range l.ids {
		seq := (i - 1 - k) / n // the last seq reading i-1 or an earlier one gave stream k
		finals[k] = final{queryID(l.ids[k]), seq + settleSteps, l.value(k, seq), l.delta}
	}
	for step := 1; step <= settleSteps; step++ {
		for k, f := range finals {
			if err := l.send(k, f.seq-settleSteps+step, f.want); err != nil {
				return nil, i, err
			}
		}
	}
	return finals, i + settleSteps*n, l.drain()
}

// conn is a loader and how far along its sequence it is.
type conn struct {
	loader
	next int
}

// run offers n readings as fast as the connection takes them.
func (c *conn) run(n int) error {
	for end := c.next + n; c.next < end; c.next++ {
		if err := c.offer(c.next); err != nil {
			return err
		}
	}
	return nil
}

// mark is an instant and the CPU time the process had used by then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func markNow() mark { return mark{time.Now(), cpuTime()} }

// paceHz is how often a paced connection wakes to offer its next batch.
// It shares no small factor with the probe's 1,000 Hz, so the probes
// meet the batches at every phase instead of always at the same one.
const paceHz = 3701

// paced offers up to n readings at rate per second from start on, in
// paceHz batches a second, and returns how late each batch began. It
// stops at end whatever it has offered by then, so that a machine too
// slow for the rate makes the window thinner, not longer.
func (c *conn) paced(n int, rate float64, start, end time.Time) (lagUS []float64, err error) {
	nap, err := newNapper()
	if err != nil {
		return nil, err
	}
	defer nap.close()
	batch := int(rate/paceHz) + 1
	for done := 0; done < n; done += batch {
		due := start.Add(time.Duration(float64(done) / rate * float64(time.Second)))
		if err := nap.until(due); err != nil {
			return nil, err
		}
		if !time.Now().Before(end) {
			break
		}
		lagUS = append(lagUS, micros(time.Since(due)))
		if batch > n-done {
			batch = n - done
		}
		if err := c.run(batch); err != nil {
			return nil, err
		}
		if err := c.flush(); err != nil {
			return nil, err
		}
	}
	return lagUS, c.drain()
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// prober measures reading→answer on a stream of its own: a reading that
// misses δ, the wait until the server has applied it, the query.
type prober struct {
	src source
	ask asker
	// wait, when set, blocks until the server has applied seq: the
	// datagram transport has no ack, so the paced phase waits for the
	// server's own notification. When nil, Drain does (TCP: the ack).
	wait func(seq int, d time.Duration) bool
	seq  int
	base float64 // the server's last answer
	sign float64
}

// once sends one probe and reports whether its answer was correct. Each
// reading steps 2δ from the server's last answer, so it must be sent,
// and the constant model's gain (0.62 at steady state, higher before)
// brings the fresh answer within 0.76δ of it; a stale or desynchronised
// answer misses by 2δ or more.
func (p *prober) once() (bool, error) {
	v := p.base + p.sign*2*probeDelta
	p.sign = -p.sign
	seq := p.seq
	p.seq++
	sent, err := p.src.Offer(seq, v)
	if err != nil {
		return false, err
	}
	if p.wait != nil {
		if !p.wait(seq, probeLimit) {
			return false, nil
		}
	} else if err := p.src.Drain(); err != nil {
		return false, err
	}
	ans, err := p.ask.Ask(queryID(probeID), seq)
	if err != nil {
		return false, err
	}
	p.base = ans[0]
	return sent && math.Abs(ans[0]-v) <= probeDelta, nil
}

// timed is what an open-loop client measured.
type timed struct {
	latUS  []float64 // successful operations, from when each was due
	slow   int       // of those, how many took longer than slowLimit
	lagUS  []float64 // how late the client woke for the operations it slept before
	failed int
	unsent int // operations still due when the client's time was up
	err    error
}

// add appends what another run of the same client measured.
func (t *timed) add(u timed) {
	t.latUS = append(t.latUS, u.latUS...)
	t.lagUS = append(t.lagUS, u.lagUS...)
	t.slow += u.slow
	t.failed += u.failed
	t.unsent += u.unsent
}

// openLoop calls op on a fixed schedule from start on: n times or until
// end, whichever comes first, or until stop closes when n is 0. An
// operation is timed from when it was due if the one before it overran,
// and from when the client woke otherwise, so a stall in the system
// counts against every operation it delays and the client's own wake-up
// jitter counts against none (it is reported as lag). An operation fails
// when op says so, never for being late: lateness is the latency.
func openLoop(start, end time.Time, every time.Duration, n int, stop <-chan struct{}, op func() (bool, error)) (t timed) {
	nap, err := newNapper()
	if err != nil {
		t.err = err
		return t
	}
	defer nap.close()
	for k := 0; n == 0 || k < n; k++ {
		select {
		case <-stop:
			return t
		default:
		}
		due := start.Add(time.Duration(k) * every)
		t0 := due
		if time.Now().Before(due) {
			if t.err = nap.until(due); t.err != nil {
				return t
			}
			t0 = time.Now()
			t.lagUS = append(t.lagUS, micros(t0.Sub(due)))
		} else if n > 0 && !time.Now().Before(end) {
			t.unsent = n - k
			return t
		}
		ok, err := op()
		if err != nil {
			t.err = err
			return t
		}
		if !ok {
			t.failed++
			continue
		}
		d := time.Since(t0)
		t.latUS = append(t.latUS, micros(d))
		if d > slowLimit {
			t.slow++
		}
	}
	return t
}

// rig is one set-up system with its clients connected and warmed up.
type rig struct {
	w      workload
	sys    *system
	walDir string
	conns  []*conn
	probe  *prober
	check  asker // final answers
	// Of the routed workload only:
	reader  asker           // the aggregate reader's query connection
	idle    []final         // members of the aggregate that carry no load
	members map[string]bool // query ids of the aggregate's members
}

// loadConns is how many source connections offer load: one per core
// beyond the first, which the server side needs.
func loadConns() int {
	if n := runtime.GOMAXPROCS(0) - 1; n > 1 {
		return n
	}
	return 1
}

// setup builds the inputs and the system, registers and bootstraps every
// stream, connects the clients and warms up with warm readings per
// connection.
func setup(w workload, seed int64, warm int) (r *rig, err error) {
	r = &rig{w: w}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	block := genBlock(seed, w.signal)
	if w.sut.durable {
		if r.walDir, err = os.MkdirTemp("", "dkf-e2e-wal-"); err != nil {
			return r, err
		}
	}
	if r.sys, err = openSystem(w.sut, r.walDir); err != nil {
		return r, err
	}

	// Streams: the loaded ones, the probe's and, when routed, idle ones
	// that fill the aggregate up to its member count.
	nConn := loadConns()
	var loaded, idle []string
	if w.fanin > 0 {
		for i := 0; i < w.fanin; i++ {
			loaded = append(loaded, fmt.Sprintf("src-%05d", i))
		}
	} else {
		for i := 0; i < nConn; i++ {
			loaded = append(loaded, fmt.Sprintf("load-%d", i))
		}
		for i := len(loaded); w.sut.routed && i < aggMembers; i++ {
			idle = append(idle, fmt.Sprintf("idle-%02d", i))
		}
	}
	all := append(append([]string(nil), loaded...), idle...)
	for _, id := range all {
		if err = r.sys.register(queryID(id), id, w.model, w.delta); err != nil {
			return r, err
		}
	}
	if w.sut.routed {
		if err = r.sys.registerSum(aggQuery, all[:aggMembers], w.model, w.delta); err != nil {
			return r, err
		}
		r.members = map[string]bool{}
		for _, id := range all[:aggMembers] {
			r.members[queryID(id)] = true
		}
	}
	if err = r.sys.register(queryID(probeID), probeID, "constant", probeDelta); err != nil {
		return r, err
	}

	for i, id := range idle {
		f := final{queryID(id), 0, float64(100 + i), w.delta}
		src, err := r.sys.dialSource(id, 1)
		if err != nil {
			return r, err
		}
		_, err = src.Offer(0, f.want)
		if err == nil {
			err = src.Drain()
		}
		src.Close()
		if err != nil {
			return r, err
		}
		r.idle = append(r.idle, f)
	}
	for i := 0; i < nConn; i++ {
		var l loader
		if w.fanin > 0 {
			tx, err := r.sys.dialFanin()
			if err != nil {
				return r, err
			}
			lo, hi := i*w.fanin/nConn, (i+1)*w.fanin/nConn
			l = &faninLoader{tx: tx, sys: r.sys, ids: loaded[lo:hi], first: lo, block: block, delta: w.delta}
		} else {
			src, err := r.sys.dialSource(loaded[i], 0)
			if err != nil {
				return r, err
			}
			l = &tcpLoader{id: loaded[i], src: src, block: block, off: i * blockLen / nConn, delta: w.delta}
		}
		r.conns = append(r.conns, &conn{loader: l})
	}
	r.probe = &prober{sign: 1}
	if r.probe.src, err = r.sys.dialSource(probeID, 1); err != nil {
		return r, err
	}
	queries := []*asker{&r.probe.ask, &r.check}
	if w.sut.routed {
		queries = append(queries, &r.reader)
	}
	for _, q := range queries {
		if *q, err = r.sys.dialQuery(); err != nil {
			return r, err
		}
	}

	// Warm-up: a fan-in connection first bootstraps every stream it owns.
	err = parallel(len(r.conns), func(i int) error {
		c := r.conns[i]
		n := warm
		if w.fanin > 0 {
			n += len(c.loader.(*faninLoader).ids)
		}
		if err := c.run(n); err != nil {
			return err
		}
		return c.drain()
	})
	if err != nil {
		return r, err
	}
	for i := 0; i < 16; i++ { // the probe's bootstrap and both its connections
		if _, err = r.probe.once(); err != nil {
			return r, err
		}
	}
	if w.sut.routed {
		_, err = r.reader.Ask(aggQuery, 0)
	}
	return r, err
}

func (r *rig) close() {
	for _, c := range r.conns {
		c.close()
	}
	if r.probe != nil {
		if r.probe.src != nil {
			r.probe.src.Close()
		}
		if r.probe.ask != nil {
			r.probe.ask.Close()
		}
	}
	for _, q := range []asker{r.reader, r.check} {
		if q != nil {
			q.Close()
		}
	}
	if r.sys != nil {
		if err := r.sys.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dkf-e2e: closing the system:", err)
		}
	}
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// parallel runs fn(0..n-1) concurrently and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// askAggregate is the aggregate reader's operation. Its value is checked
// once, when the run ends and the members hold still.
func (r *rig) askAggregate() (bool, error) {
	_, err := r.reader.Ask(aggQuery, 0)
	return true, err
}

// verify settles every stream and checks the final answers: each
// stream's within δ of its last reading and, when routed, the
// aggregate's within the sum of its members' δ.
func (r *rig) verify() (checked, wrong int, err error) {
	finals := append([]final(nil), r.idle...)
	for _, c := range r.conns {
		fs, next, err := c.settle(c.next)
		if err != nil {
			return 0, 0, err
		}
		c.next = next
		finals = append(finals, fs...)
	}
	want := 0.0
	for _, f := range finals {
		ans, err := r.check.Ask(f.query, f.seq)
		if err != nil {
			return 0, 0, err
		}
		if !(math.Abs(ans[0]-f.want) <= f.delta+1e-9) {
			wrong++
		}
		if r.members[f.query] {
			want += f.want
		}
	}
	if !r.w.sut.routed {
		return len(finals), wrong, nil
	}
	ans, err := r.check.Ask(aggQuery, 0)
	if err != nil {
		return 0, 0, err
	}
	if !(math.Abs(ans[0]-want) <= aggMembers*r.w.delta+1e-9) {
		wrong++
	}
	return len(finals) + 1, wrong, nil
}
