package main

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machines this benchmark runs on change speed under it: on the
// two-vCPU virtual machine the ledger was calibrated on, the same code
// runs 20 to 40 % slower for tens of seconds or minutes at a time and
// then recovers. A 20 s run falls into one such phase or the other, or
// changes phase half way, so times as measured differ between two runs of
// the same commit by 10 to 30 %: more than any bound the contract allows.
//
// speedRef measures the phase. A lap is a fixed piece of work of the
// benchmark's own: it folds a thousand seeded values into a table, sorts
// them, writes values and table out as text and reads the text back. It
// shares no code with the program, and it allocates nothing: the
// allocator and the garbage collector, which the system under test keeps
// busy, never see it, so a change that allocates or collects more does
// not stretch the laps it is judged by. Every lap is run twice and the
// second run timed, so that the lap finds its own code and data in the
// caches whatever ran before it. What the system under test can still do
// to a lap is what any neighbour on the same processor can; README.md,
// "How the numbers are made to repeat", has the measurement.
//
// Laps run beside the load and beside the set-up rounds, one every
// refEvery, on the system's own processor; refBetween more follow every
// set-up round. Every time the benchmark
// reports is multiplied by refNominal divided by the median lap of the
// same stretch of the run, every closed-loop rate by the inverse: the
// unit stays the millisecond, read as "at the speed at which a lap takes
// refNominal". The values as measured are kept in the run's record.
type speedRef struct {
	mu   sync.Mutex // one lap at a time, and guards laps
	laps []lapRec

	data  [1024]int
	items [1024]int
	table [2048]float64
	text  []byte
}

// lapRec is one lap: when it began (run offset) and how long it took.
type lapRec struct{ t, ns int64 }

const (
	// refNominal is the lap time the seed machine shows in its fast phase;
	// a frozen constant, not a measurement of the run.
	refNominal = 100 * time.Microsecond
	refEvery   = 20 * time.Millisecond
	// refBetween laps follow every set-up round, besides the one every
	// refEvery while the phase lasts: a phase of three long rounds and a
	// phase of sixty short ones both get a few hundred laps that way.
	refBetween = 8
)

func newSpeedRef() *speedRef {
	s := &speedRef{text: make([]byte, 0, 1<<15)}
	x := uint64(2654435762)
	for i := range s.data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.data[i] = int(x % 100000)
	}
	return s
}

// work does the fixed work once and returns a value that depends on all
// of it.
func (s *speedRef) work() int {
	clear(s.table[:])
	for i, v := range s.data {
		s.table[uint64(v)*0x9e3779b97f4a7c15>>53] += float64(i)
	}
	copy(s.items[:], s.data[:])
	sort.Ints(s.items[:])
	s.text = s.text[:0]
	for _, v := range s.items {
		s.text = append(strconv.AppendInt(s.text, int64(v), 10), ',')
	}
	for _, f := range s.table[:256] {
		s.text = append(strconv.AppendFloat(s.text, f, 'g', -1, 64), ',')
	}
	sum, cur := 0, 0
	for _, c := range s.text {
		switch {
		case c == ',':
			sum, cur = sum+cur, 0
		case c >= '0' && c <= '9':
			cur = cur*10 + int(c-'0')
		}
	}
	return sum
}

// lap runs the work twice, at run offset t, and records how long the
// second run took.
func (s *speedRef) lap(t int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.work()
	t0 := time.Now()
	second := s.work()
	d := int64(time.Since(t0))
	if first != second {
		panic("benchmark: the reference lap lost its data") // cannot happen: same input, same work
	}
	s.laps = append(s.laps, lapRec{t: t, ns: d})
}

// lapsIn returns the durations of the laps run between run offsets from
// and to.
func (s *speedRef) lapsIn(from, to int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ns []int64
	for _, l := range s.laps {
		if l.t >= from && l.t < to {
			ns = append(ns, l.ns)
		}
	}
	return ns
}

// factor is what a time measured between run offsets from and to is
// multiplied by: refNominal over the median lap of that stretch (1 when
// no lap fell into it).
func (s *speedRef) factor(from, to int64) float64 {
	ns := s.lapsIn(from, to)
	if len(ns) == 0 {
		return 1
	}
	return float64(refNominal) / quantileOf(ns, 0.5)
}

// lapEvery runs one lap every refEvery, off a timer, until the function
// it returns is called (more than once does no harm): for the set-up
// phase, which no conductor paces. (A timer wakes late on this kind of
// machine; a lap does not mind.)
func (r *run) lapEvery() (stop func()) {
	done, ended := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				r.ref.lap(r.now())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-ended
		})
	}
}

// refLoop runs one lap for every due time it is handed.
func (r *run) refLoop(t ticks) {
	for {
		select {
		case <-r.stop:
			return
		case <-t:
			r.ref.lap(r.now())
		}
	}
}

// normalize scales timed samples to the reference speed, slice by slice:
// each sample is multiplied by the factor of the second of the window it
// was taken in. at[i] is sample i's offset into the window. It returns
// the scaled copy.
func (r *run) normalize(at, ns []int64) []int64 {
	seconds := int(r.cfg.window/time.Second) + 1
	factors := make([]float64, seconds)
	whole := r.ref.factor(r.winStart, r.winEnd)
	for s := range factors {
		// A second with fewer than ten laps takes the window's factor: the
		// median of so few would be noise.
		factors[s] = whole
		from := r.winStart + int64(s)*int64(time.Second)
		if ns := r.ref.lapsIn(from, from+int64(time.Second)); len(ns) >= 10 {
			factors[s] = float64(refNominal) / quantileOf(ns, 0.5)
		}
	}
	out := make([]int64, len(ns))
	for i, v := range ns {
		s := min(max(int(at[i]/int64(time.Second)), 0), seconds-1)
		out[i] = int64(float64(v) * factors[s])
	}
	return out
}
