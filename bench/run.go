package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// setups is how often a run sets the system up on a usable machine.
const setups = 5

// Interference only ever slows a sample down, so of the samples of one
// run the quartile on the fast side says most about the system: the
// lower quartile of times, the upper quartile of rates.
const (
	undisturbedTime = 0.25
	undisturbedRate = 0.75
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one workload measured.
type report struct {
	workload  string
	endToEnd  []metric
	perLayer  []metric // empty unless the traced pass ran
	notes     []string // what lies behind the medians, printed as comment lines
	attempted int
	failed    int
}

// options are the flags a run depends on.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory of the span files
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// phases is what the timed phases of a workload measured, beyond the
// end-to-end metrics: the traced pass reports some of it per layer.
type phases struct {
	cpuNsPerReading float64 // raw
	updateRatio     float64
	frameBytes      int // wire size of one update of the load
	probe           timed
	lagUS           []float64 // the load generators' and the probe's lateness
	engine          engineReport
	checkpointMS    float64
}

// runWorkload runs one workload in this process: set-up, the saturate
// and paced phases with tracing off, the final checks, and then the
// traced pass if asked for. phase is told each phase as it starts.
func runWorkload(w workload, o options, phase func(string)) (*report, error) {
	scale := o.seconds / baseSeconds
	rep := &report{workload: w.name}
	nConn := loadConns()
	ref := newReference(scale)

	phase("setup")
	warm := int(float64(w.satCount) * scale * 0.10 / float64(nConn)) // about 0.6 s
	var setupS samples
	var r *rig
	idle := runtime.NumGoroutine()
	for tries := 0; setupS.usable() < setups && tries < setups+2; tries++ {
		if r != nil {
			// The next set-up starts from the same heap: the last system's
			// goroutines have to be gone before a collection can free it,
			// or the peak RSS is that of two systems in some runs and of
			// one in others.
			r.close()
			r = nil
			for wait := 0; runtime.NumGoroutine() > idle && wait < 1000; wait++ {
				time.Sleep(time.Millisecond)
			}
			runtime.GC()
		}
		t := time.Now()
		var err error
		if r, err = setup(w, o.seed, warm); err != nil {
			return nil, err
		}
		took := time.Since(t).Seconds() // before the reference runs
		setupS.add(took, ref.endSample())
	}
	defer r.close()

	phase("saturate")
	sat, err := r.saturate(int(float64(w.satCount)*scale/float64(nConn)), seconds(o.seconds), ref)
	if err != nil {
		return nil, err
	}
	rep.attempted += sat.readings + len(sat.reader.latUS) + sat.reader.failed
	rep.failed += sat.reader.failed

	phase("paced")
	paced, err := r.paced(seconds(o.seconds/2), ref)
	if err != nil {
		return nil, err
	}
	probe, reader := paced.probe(), paced.reader()
	rep.attempted += paced.readings + len(probe.latUS) + probe.failed + len(reader.latUS) + reader.failed
	rep.failed += probe.failed + reader.failed
	if len(probe.latUS) == 0 || (w.sut.routed && len(reader.latUS) == 0) {
		return nil, fmt.Errorf("no probe or no aggregate ask succeeded")
	}

	phase("verify")
	checked, wrong, err := r.verify()
	if err != nil {
		return nil, err
	}
	rep.attempted += checked
	ph := phases{
		cpuNsPerReading: quantile(sat.cpuNs.raw(), undisturbedTime),
		updateRatio:     sat.updateRatio,
		frameBytes:      r.conns[0].frameBytes(),
		probe:           probe,
		lagUS:           paced.lagUS,
		engine:          r.sys.engineReport(),
	}
	rep.failed += wrong + int(ph.engine.lost)
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "dkf-e2e: %s failed: %d probes, %d aggregate asks, %d final answers, %d updates lost (%s)\n",
			w.name, probe.failed, sat.reader.failed+reader.failed, wrong, ph.engine.lost, ph.engine.lostDetail)
	}
	if o.trace && w.sut.durable {
		var ms []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			if err := r.sys.checkpoint(); err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t))/float64(time.Millisecond))
		}
		ph.checkpointMS = median(ms)
	}

	// Every timing is the quartile on the undisturbed side of its samples,
	// each as at the calm speed of the machine: ref.go says why. The raw
	// quartiles and the speeds follow as per-layer metrics.
	pacedF := paced.speeds.speed()
	p50, p90 := paced.percentile(timedProbe, 0.50), paced.percentile(timedProbe, 0.90)
	agg := 0.0 // the layer is bypassed
	if w.sut.routed {
		agg = paced.percentile(timedReader, 0.50)
	}
	rep.notes = []string{
		fmt.Sprintf("setup seconds %.4f at speeds %.3f", setupS.values, setupS.speeds),
		fmt.Sprintf("saturate slice rates %.0f, cpu ns per reading %.1f, at speeds %.3f", sat.rates.values, sat.cpuNs.values, sat.rates.speeds),
		fmt.Sprintf("paced window speeds %.3f; waited %.1f s for a usable machine", paced.speeds.speeds, ref.waited.Seconds()),
	}
	rep.endToEnd = []metric{
		{"setup_s", quantile(setupS.times(), undisturbedTime), "s"},
		{"readings_per_s", quantile(sat.rates.rates(), undisturbedRate), "1/s"},
		{"cpu_us_per_reading", quantile(sat.cpuNs.times(), undisturbedTime) / 1e3, "us"},
		{"wire_bytes_per_reading", sat.wireBytes, "B"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
	// The latencies do not repeat within any bound the contract allows,
	// even scaled (README.md has the runs), so they are reported here,
	// where nothing is gated.
	rep.perLayer = []metric{
		{"answer_latency_p50_us", p50 * pacedF, "us"},
		{"answer_latency_p90_us", p90 * pacedF, "us"},
		{"agg_answer_p50_us", agg * pacedF, "us"},
		{"raw.setup_s", quantile(setupS.raw(), undisturbedTime), "s"},
		{"raw.readings_per_s", quantile(sat.rates.raw(), undisturbedRate), "1/s"},
		{"raw.cpu_us_per_reading", ph.cpuNsPerReading / 1e3, "us"},
		{"raw.answer_latency_p50_us", p50, "us"},
		{"raw.answer_latency_p90_us", p90, "us"},
		{"raw.agg_answer_p50_us", agg, "us"},
		{"machine.speed_setup", setupS.speed(), "ratio"},
		{"machine.speed_saturate", sat.rates.speed(), "ratio"},
		{"machine.speed_paced", pacedF, "ratio"},
		{"machine.usable_slices", float64(sat.rates.usable()), "count"},
		{"machine.waited_s", ref.waited.Seconds(), "s"},
	}
	if o.trace {
		phase("traced")
		traced, err := tracedPass(w, o, ph)
		if err != nil {
			return nil, err
		}
		rep.perLayer = append(rep.perLayer, traced...)
	}
	return rep, nil
}

// saturated is the outcome of the saturate phase.
type saturated struct {
	readings    int
	rates       samples // readings per second, per slice
	cpuNs       samples // the process's CPU time per reading, per slice
	updateRatio float64
	wireBytes   float64 // update frame bytes sent per reading offered
	reader      timed
}

// minSlices is how many slices of the saturate phase run however long
// they take.
const minSlices = 8

// saturate offers perConn readings on every connection in a closed loop
// with no pacing, in slices of equal count. A slice ends when the server
// has applied all of it; then the reference runs. The phase ends with
// the slice that is the slices-th on a usable machine. It also ends when
// it has measured for budget, twice what it takes on the calm machine,
// and minSlices are done: a slow machine gets fewer slices of the same
// work, not a longer run.
func (r *rig) saturate(perConn int, budget time.Duration, ref *reference) (saturated, error) {
	per := perConn / slices
	if per == 0 {
		per = 1
	}
	if r.w.fanin == 0 && per >= blockLen {
		// Whole blocks: every slice offers a filtered source the same
		// readings, so the update ratio and the bytes on the wire do not
		// depend on how many slices ran.
		per = (per + blockLen/2) / blockLen * blockLen
	}
	var s saturated
	readings0, updates0 := r.counts()
	var measured time.Duration
	for i := 0; s.rates.usable() < slices && (i < minSlices || measured < budget); i++ {
		stop, readerDone := make(chan struct{}), make(chan timed, 1)
		if r.w.sut.routed {
			go func() { readerDone <- openLoop(time.Now(), time.Time{}, aggEvery, 0, stop, r.askAggregate) }()
		} else {
			readerDone <- timed{}
		}
		m0 := markNow()
		err := parallel(len(r.conns), func(i int) error {
			if err := r.conns[i].run(per); err != nil {
				return err
			}
			return r.conns[i].drain()
		})
		m1 := markNow()
		close(stop)
		reader := <-readerDone
		if err == nil {
			err = reader.err
		}
		if err != nil {
			return s, err
		}
		s.reader.add(reader)
		n := float64(per * len(r.conns))
		around := ref.endSample()
		s.rates.add(n/m1.at.Sub(m0.at).Seconds(), around)
		s.cpuNs.add(float64(m1.cpu-m0.cpu)/n, around)
		measured += m1.at.Sub(m0.at)
	}
	readings1, updates1 := r.counts()
	s.readings = readings1 - readings0
	for i, c := range r.conns {
		s.wireBytes += float64((updates1[i]-updates0[i])*c.frameBytes()) / float64(s.readings)
	}
	s.updateRatio = float64(sum(updates1)-sum(updates0)) / float64(s.readings)
	return s, nil
}

// counts returns the readings offered so far and, per connection, the
// updates sent.
func (r *rig) counts() (readings int, updates []int) {
	for _, c := range r.conns {
		rd, up := c.counts()
		readings += rd
		updates = append(updates, up)
	}
	return readings, updates
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

// pacedWindow is what the open-loop clients measured in one window.
type pacedWindow [2]timed

const (
	timedProbe = iota
	timedReader
)

// pacedResult is the outcome of the paced phase.
type pacedResult struct {
	readings int
	windows  []pacedWindow
	speeds   samples   // each window's index, with the machine's speed around the window
	lagUS    []float64 // the load generators' and the probe's lateness
}

// percentile is the median over the windows of the q-quantile of a
// client's latencies.
func (p *pacedResult) percentile(client int, q float64) float64 {
	var lats [][]float64
	p.speeds.kept(func(i float64, _ bracket) { lats = append(lats, p.windows[int(i)][client].latUS) })
	return windowedPercentile(lats, q)
}

// probe and reader return a client's windows as one.
func (p *pacedResult) probe() timed  { return p.all(timedProbe) }
func (p *pacedResult) reader() timed { return p.all(timedReader) }

func (p *pacedResult) all(client int) (t timed) {
	for _, w := range p.windows {
		t.add(w[client])
	}
	return t
}

// paced offers the workload's frozen rate for dur, split over the
// connections, while the probe and, when routed, the aggregate reader
// run open loop. The phase is cut into windows with the reference between
// them. Every client stops at its window's end, so on a machine too slow
// for the rate a window offers less and the phase takes no longer.
func (r *rig) paced(dur time.Duration, ref *reference) (pacedResult, error) {
	var res pacedResult
	if r.w.sut.udp {
		wait, cancel, err := r.sys.awaitApplied(queryID(probeID))
		if err != nil {
			return res, err
		}
		r.probe.wait = wait
		defer func() {
			cancel()
			r.probe.wait = nil
		}()
	}
	dur /= slices
	rate := r.w.pacedRate / float64(len(r.conns))
	perConn := int(rate * dur.Seconds())
	readings0, _ := r.counts()
	for i := 0; i < slices; i++ {
		var win pacedWindow
		lags := make([][]float64, len(r.conns))
		start := time.Now().Add(5 * time.Millisecond)
		end := start.Add(dur)
		clients := 1
		if r.w.sut.routed {
			clients = 2
		}
		err := parallel(len(r.conns)+clients, func(i int) (err error) {
			switch i {
			case len(r.conns):
				win[timedProbe] = openLoop(start, end, probeEvery, int(dur/probeEvery), nil, r.probe.once)
				return win[timedProbe].err
			case len(r.conns) + 1:
				// Off the probe's beat by a fixed part of the reader's period.
				win[timedReader] = openLoop(start.Add(aggEvery*37/100), end, aggEvery, int(dur/aggEvery), nil, r.askAggregate)
				return win[timedReader].err
			}
			lags[i], err = r.conns[i].paced(perConn, rate, start, end)
			return err
		})
		if err != nil {
			return res, err
		}
		res.windows = append(res.windows, win)
		res.speeds.add(float64(i), ref.endSample())
		res.lagUS = append(res.lagUS, win[timedProbe].lagUS...)
		for _, l := range lags {
			res.lagUS = append(res.lagUS, l...)
		}
	}
	readings1, _ := r.counts()
	res.readings = readings1 - readings0
	return res, nil
}
