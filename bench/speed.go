package bench

import (
	"sort"
	"sync"
	"time"
)

// The host this benchmark was written on (a 2-vCPU VM) slows down by up
// to 2× for seconds at a time: a VGG-16×0.25 forward takes 18–40 ms
// depending on the second. A reference kernel run in the same seconds
// slows down in step — per second, the ratio of forward to reference
// varied 2% where the forward alone varied 11% — so every reported time
// is scaled by how fast the reference ran around it, to the speed at
// which the reference takes refNominalMS. The report keeps the raw times.

// refN is the edge of the reference kernel's square matrices.
const refN = 160

// refNominalMS is the reference kernel's time on this host when nothing
// contends for its core: scaled times read as milliseconds at that speed.
const refNominalMS = 2.0

// refEvery is the reference sampling period; each sample costs about
// 1% of it.
const refEvery = 250 * time.Millisecond

// refSpan is the shortest stretch of reference samples a time is scaled
// by; shorter intervals borrow samples from either side.
const refSpan = 2 * time.Second

// refKernel is a naive float32 matrix product, written here so that no
// change to the repository's own kernels can change its speed.
type refKernel struct {
	a, b, c []float32
}

func newRefKernel() *refKernel {
	k := &refKernel{a: make([]float32, refN*refN), b: make([]float32, refN*refN), c: make([]float32, refN*refN)}
	for i := range k.a {
		k.a[i] = float32(i%13) - 6
		k.b[i] = float32(i%7) - 3
	}
	return k
}

func (k *refKernel) run() {
	for i := 0; i < refN; i++ {
		out := k.c[i*refN : (i+1)*refN]
		for j := range out {
			out[j] = 0
		}
		for p := 0; p < refN; p++ {
			aip := k.a[i*refN+p]
			row := k.b[p*refN : (p+1)*refN]
			for j := range out {
				out[j] += aip * row[j]
			}
		}
	}
}

// speedometer times the reference kernel every refEvery until stopped.
type speedometer struct {
	kernel *refKernel
	mu     sync.Mutex
	at     []time.Time // sample midpoints, ascending
	ms     []float64
	stop   chan struct{}
	done   chan struct{}
}

func startSpeedometer() *speedometer {
	s := &speedometer{kernel: newRefKernel(), stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *speedometer) sample() {
	t0 := time.Now()
	s.kernel.run()
	d := time.Since(t0)
	s.mu.Lock()
	s.at = append(s.at, t0.Add(d/2))
	s.ms = append(s.ms, ms(d))
	s.mu.Unlock()
}

// Stop ends sampling and waits for the sampler to exit.
func (s *speedometer) Stop() {
	close(s.stop)
	<-s.done
}

// scale is the factor that takes a time measured over [from, to] to
// nominal host speed: refNominalMS over the median reference time in
// the interval, widened to refSpan about its middle if shorter (or the
// nearest sample if none falls inside).
func (s *speedometer) scale(from, to time.Time) float64 {
	if d := to.Sub(from); d < refSpan {
		from, to = from.Add(-(refSpan-d)/2), to.Add((refSpan-d)/2)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(to) })
	if lo >= hi {
		lo = nearest(s.at, from.Add(to.Sub(from)/2))
		hi = lo + 1
	}
	return refNominalMS / median(append([]float64(nil), s.ms[lo:hi]...))
}

// nearest is the index of the sample closest to t; at is non-empty.
func nearest(at []time.Time, t time.Time) int {
	i := sort.Search(len(at), func(i int) bool { return !at[i].Before(t) })
	if i == len(at) || (i > 0 && t.Sub(at[i-1]) < at[i].Sub(t)) {
		i--
	}
	return i
}

// norm is the interval's duration in milliseconds at nominal host speed.
func (s *speedometer) norm(from, to time.Time) float64 {
	return ms(to.Sub(from)) * s.scale(from, to)
}

// medianMS is the median reference time over every sample, raw.
func (s *speedometer) medianMS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(append([]float64(nil), s.ms...))
}

// meter times the benchmark's own operations: a span each for a traced
// run, and a duration at nominal host speed for the metrics.
type meter struct {
	rec   *recorder
	speed *speedometer
}

// time runs fn in a span and returns its duration in nominal ms.
func (m meter) time(parent int64, name string, fn func()) float64 {
	id := m.rec.NewID()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	m.rec.Record(id, parent, 0, name, t0, t1)
	return m.speed.norm(t0, t1)
}

// median runs fn probeReps times and returns the median nominal ms.
func (m meter) median(parent int64, name string, fn func()) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = m.time(parent, name, fn)
	}
	return median(xs)
}

// span opens a root span and returns its id and the function that
// ends it.
func (m meter) span(name string) (int64, func()) {
	id, t0 := m.rec.NewID(), time.Now()
	return id, func() { m.rec.Record(id, 0, 0, name, t0, time.Now()) }
}
