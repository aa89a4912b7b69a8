package main

import (
	"runtime"
	"sync"
	"time"
)

// The machine this benchmark runs on is a shared virtual one whose speed
// changes by a half within seconds and by a third over tens of minutes
// (README.md has the evidence), so a raw time says more about the hour
// than about the system. The reference is a fixed piece of work, in this
// file and outside the system under test, that is timed around every
// sample of a timing metric: each set-up and each slice of a phase. It
// is used twice. A sample is reported as it would have read at the speed
// the reference had when the workloads were frozen: a time multiplied by
// the machine's speed around it, a rate divided. And a sample taken while
// the machine ran below minSpeed is set aside, and the run waits, as long
// as its patience lasts, until the machine is usable again: in such a
// spell the system slows down several times more than the reference, so
// no scaling repairs what was measured in it. The raw values and the
// speeds are per-layer metrics.

const (
	// refSteps is the length of one reference run at -seconds 12: long
	// enough that starting its goroutines does not show.
	refSteps = 20_000_000
	// refCalm is what one reference run took on the machine and in the
	// state the workloads' counts and rates were frozen in: speed 1.
	refCalm = 44 * time.Millisecond

	refTable = 1 << 15 // 256 KiB of uint64: fits the second-level cache

	// minSpeed is the speed below which a sample is not used. The machine
	// spends most of its time between 0.4 and 0.8; below 0.3 a run takes so
	// long that the driver's time for all runs would not do anyway, so
	// waiting costs nothing that was not lost.
	minSpeed = 0.3
	// refPatience is how long one run at -seconds 12 may wait for a usable
	// machine, all its waits together, and refPause how long it waits
	// between two looks. With them a run still ends within its deadline.
	refPatience = 60 * time.Second
	refPause    = time.Second
)

// reference times the same work on every scheduler slot at once, as the
// workloads keep every slot busy.
type reference struct {
	steps    int
	tables   [][]uint64
	sink     uint64
	last     float64       // the speed when the sample now running began
	pause    time.Duration // refPause, scaled
	patience time.Duration // what is left of refPatience, scaled
	waited   time.Duration // what is spent of it
}

// newReference makes a reference whose runs are scale times refSteps
// long, as every other count of a run scales. It waits for a usable
// machine before it returns.
func newReference(scale float64) *reference {
	r := &reference{
		steps:    int(refSteps * scale),
		tables:   make([][]uint64, runtime.GOMAXPROCS(0)),
		pause:    time.Duration(float64(refPause) * scale),
		patience: time.Duration(float64(refPatience) * scale),
	}
	for i := range r.tables {
		r.tables[i] = make([]uint64, refTable)
	}
	r.endSample()
	return r
}

// refKernel has the instruction mix of server code rather than of a
// numeric loop: loads and stores spread over a table, multiplies, and a
// branch that cannot be predicted. That makes it slow down as the system
// does when a neighbour takes the other half of the core; a dependent
// chain of floating-point operations does not.
func refKernel(tab []uint64, n int) uint64 {
	const mask = refTable - 1
	var a, b, c, d uint64 = 1, 2, 3, 4
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= tab[(a>>40)&mask]
		c += b >> 3
		d = d*31 + c
		if a&(1<<50) != 0 {
			c ^= d
		}
		tab[(d>>20)&mask] = c
	}
	return a ^ b ^ c ^ d
}

// speed runs the kernel on every slot and returns the machine's speed:
// the calm time of one kernel over the mean time one took now.
func (r *reference) speed() float64 {
	took := make([]time.Duration, len(r.tables))
	sums := make([]uint64, len(r.tables))
	var wg sync.WaitGroup
	for i := range r.tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := time.Now()
			sums[i] = refKernel(r.tables[i], r.steps)
			took[i] = time.Since(t)
		}(i)
	}
	wg.Wait()
	var total time.Duration
	for i := range took {
		total += took[i]
		r.sink ^= sums[i] // keeps the compiler from dropping the work
	}
	calm := float64(refCalm) * float64(r.steps) / refSteps
	return calm * float64(len(took)) / float64(total)
}

// bracket is the machine's speed before and after one sample.
type bracket struct{ before, after float64 }

func (b bracket) speed() float64 { return (b.before + b.after) / 2 }

// usable says whether the machine was fit to measure on at both ends.
func (b bracket) usable() bool { return b.before >= minSpeed && b.after >= minSpeed }

// endSample returns the speed the sample that just ended began and ended
// at, and then waits, as long as patience lasts, until the machine is
// usable for the next. A nil reference measures nothing and calls every
// sample usable.
func (r *reference) endSample() bracket {
	if r == nil {
		return bracket{1, 1}
	}
	b := bracket{r.last, r.speed()}
	r.last = b.after
	for r.last < minSpeed && r.patience > 0 {
		t := time.Now()
		time.Sleep(r.pause)
		r.last = r.speed()
		r.patience -= time.Since(t)
		r.waited += time.Since(t)
	}
	return b
}

// samples are repeated measurements of one quantity, each with the
// machine's speed around it.
type samples struct {
	values []float64
	speeds []bracket
}

func (s *samples) add(v float64, b bracket) {
	s.values = append(s.values, v)
	s.speeds = append(s.speeds, b)
}

// usable counts the samples taken on a usable machine.
func (s *samples) usable() (n int) {
	for _, b := range s.speeds {
		if b.usable() {
			n++
		}
	}
	return n
}

// minUsable is how many usable samples it takes to leave the others out.
const minUsable = 3

// kept calls fn with every sample that counts: those taken on a usable
// machine, or all of them when those are fewer than minUsable (the run's
// patience ran out, and a number from a slow machine is still a number).
func (s *samples) kept(fn func(v float64, b bracket)) {
	all := s.usable() < minUsable
	for i, b := range s.speeds {
		if all || b.usable() {
			fn(s.values[i], b)
		}
	}
}

// raw returns the kept samples as measured.
func (s *samples) raw() (vs []float64) {
	s.kept(func(v float64, _ bracket) { vs = append(vs, v) })
	return vs
}

// times returns the kept samples, which are times, as at the calm speed.
func (s *samples) times() (vs []float64) {
	s.kept(func(v float64, b bracket) { vs = append(vs, v*b.speed()) })
	return vs
}

// rates returns the kept samples, which are rates, as at the calm speed.
func (s *samples) rates() (vs []float64) {
	s.kept(func(v float64, b bracket) { vs = append(vs, v/b.speed()) })
	return vs
}

// speed is the median speed around the kept samples.
func (s *samples) speed() float64 {
	var vs []float64
	s.kept(func(_ float64, b bracket) { vs = append(vs, b.speed()) })
	return median(vs)
}
