package bench

import (
	"math"
	"sync"
	"time"

	"seal/internal/prng"
)

// samplePool is the number of distinct inputs a serving workload sends;
// the expected logits of each are computed locally before the run.
const samplePool = 64

// maxInflight caps concurrent requests below the HTTP/2 server's default
// stream limit (250), so the client never opens a second connection.
const maxInflight = 200

// phase is one constant-rate stretch of an open-loop pass.
type phase struct {
	name    string
	qps     float64
	seconds float64
	shed    bool // 429s here are load shedding, not failures
}

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // offset from the start of the pass
	phase  int
	model  int
	sample int
	json   bool
}

// schedule draws the arrivals of one pass: Poisson at each phase's rate,
// with each arrival's model, input sample and body encoding drawn from
// the same stream, so one seed fixes the whole load.
func schedule(seed uint64, phases []phase, models int, jsonFrac float64) []arrival {
	rng := prng.New(seed)
	var out []arrival
	var base time.Duration
	for i, ph := range phases {
		end := base + seconds(ph.seconds)
		at := base
		for {
			at += time.Duration(-math.Log(1-rng.Float64()) / ph.qps * float64(time.Second))
			if at >= end {
				break
			}
			a := arrival{at: at, phase: i, model: rng.Intn(models), sample: rng.Intn(samplePool)}
			a.json = rng.Float64() < jsonFrac
			out = append(out, a)
		}
		base = end
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// genStats describes how faithfully the generator followed its schedule.
type genStats struct {
	lateMS      []float64 // send time minus scheduled time, before any cap hold
	capHolds    int64     // arrivals that waited for an in-flight slot
	inflightMax int64
}

// openLoop sends every arrival at its scheduled time on its own
// goroutine, with at most maxInflight in flight. An arrival held by the
// cap goes out when a slot frees; send receives its scheduled time, from
// which its latency counts. openLoop returns when every send has.
func openLoop(start time.Time, arrivals []arrival, send func(i int, sched time.Time)) genStats {
	var st genStats
	st.lateMS = make([]float64, 0, len(arrivals))
	sem := make(chan struct{}, maxInflight) // holds one token per request in flight
	var wg sync.WaitGroup
	for i, a := range arrivals {
		sched := start.Add(a.at)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		st.lateMS = append(st.lateMS, ms(time.Since(sched)))
		select {
		case sem <- struct{}{}:
		default:
			st.capHolds++
			sem <- struct{}{}
		}
		if n := int64(len(sem)); n > st.inflightMax {
			st.inflightMax = n
		}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			send(i, sched)
			<-sem
		}(i, sched)
	}
	wg.Wait()
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
