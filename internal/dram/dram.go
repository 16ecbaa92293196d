// Package dram models a GDDR5 memory channel: multiple banks with open
// rows, first-ready first-come-first-served (FR-FCFS) scheduling, and a
// shared data bus whose bandwidth is the quantity SEAL is ultimately
// about. Six such channels back the simulated GTX480, matching the
// paper's 384-bit/6-channel configuration (§IV-A).
//
// The model runs on the GPU core-clock domain with float64 timestamps:
// GDDR5 transfers a 64-byte line in under two 700 MHz core cycles, so
// integer core-cycle resolution would quantize bandwidth badly.
package dram

import (
	"fmt"
	"math"
)

// Config describes one memory channel.
type Config struct {
	Banks         int     // independent banks (GDDR5 has 16)
	RowBytes      int     // row-buffer span; must be a power of two
	BytesPerCycle float64 // data-bus bandwidth in bytes per core cycle
	TRCD          float64 // activate→column delay, core cycles
	TRP           float64 // precharge delay, core cycles
	TCL           float64 // column access (CAS) latency, core cycles
	QueueDepth    int     // request queue capacity
	LineBytes     int     // transfer granularity (cache line)
}

// Validate checks structural invariants.
func (c Config) Validate() error {
	if c.Banks <= 0 {
		return fmt.Errorf("dram: non-positive bank count %d", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d not a positive power of two", c.RowBytes)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("dram: non-positive bandwidth %v", c.BytesPerCycle)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("dram: non-positive queue depth %d", c.QueueDepth)
	}
	if c.LineBytes <= 0 || c.LineBytes > c.RowBytes {
		return fmt.Errorf("dram: line size %d invalid for row size %d", c.LineBytes, c.RowBytes)
	}
	return nil
}

// Request is one line-sized transfer.
type Request struct {
	ID      uint64
	Addr    uint64
	Write   bool
	Arrival float64
	Done    float64 // completion time, set by the channel
	Tag     any     // opaque caller payload carried through the queue

	// bank and row are decoded from Addr once at Enqueue so the FR-FCFS
	// scan, which touches every queued request on every scheduling pass,
	// never divides.
	bank int32
	row  uint64
}

type bank struct {
	openRow uint64
	rowOpen bool
	readyAt float64
}

// Stats aggregates channel activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	Bytes     uint64
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// Channel is one GDDR5 channel instance. Reads and writes wait in
// separate queues, as in real memory controllers: demand reads block the
// cores, writebacks are posted, so a write burst must never trap reads
// behind it.
type Channel struct {
	cfg      Config
	readQ    []*Request
	writeQ   []*Request
	inflight []*Request
	banks    []bank
	busFree  float64
	stats    Stats
	doneBuf  []*Request // Tick's return slice, reused across cycles
	// nextEv lower-bounds the next time a Tick call can change channel
	// state (see NextEvent). Maintained incrementally: Enqueue folds in
	// the new request's eligibility estimate, Tick recomputes it from the
	// scheduling scan it performs anyway.
	nextEv float64
	// Decode constants for bankAndRow. RowBytes is a validated power of
	// two, so the row index is always a shift; bank decode uses the
	// mask/shift pair when Banks is a power of two (the GDDR5 case) and
	// falls back to division otherwise.
	rowShift  uint
	bankShift uint
	bankMask  uint64
	bankPow2  bool
}

// NewChannel constructs a channel; it panics on invalid configuration.
func NewChannel(cfg Config) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ch := &Channel{cfg: cfg, banks: make([]bank, cfg.Banks), nextEv: math.Inf(1)}
	for 1<<ch.rowShift != cfg.RowBytes {
		ch.rowShift++
	}
	if b := uint64(cfg.Banks); b&(b-1) == 0 {
		ch.bankPow2 = true
		ch.bankMask = b - 1
		for 1<<ch.bankShift != cfg.Banks {
			ch.bankShift++
		}
	}
	return ch
}

// QueueLen returns the number of requests waiting to issue.
func (ch *Channel) QueueLen() int { return len(ch.readQ) + len(ch.writeQ) }

// CanEnqueue reports whether the queue for the given class has room.
func (ch *Channel) CanEnqueue(write bool) bool {
	if write {
		return len(ch.writeQ) < ch.cfg.QueueDepth
	}
	return len(ch.readQ) < ch.cfg.QueueDepth
}

// Enqueue adds a request to its class queue; it returns false when that
// queue is full.
func (ch *Channel) Enqueue(r *Request) bool {
	if !ch.CanEnqueue(r.Write) {
		return false
	}
	b, row := ch.bankAndRow(r.Addr)
	r.bank, r.row = int32(b), row
	if r.Write {
		ch.writeQ = append(ch.writeQ, r)
	} else {
		ch.readQ = append(ch.readQ, r)
	}
	// The eligibility estimate uses the bank's current readyAt, which can
	// only grow before this request is scanned again — so the bound may
	// be early (costing a no-op Tick that re-tightens it) but never late.
	t := r.Arrival
	if ready := ch.banks[r.bank].readyAt; ready > t {
		t = ready
	}
	if t < ch.nextEv {
		ch.nextEv = t
	}
	return true
}

func (ch *Channel) bankAndRow(addr uint64) (int, uint64) {
	row := addr >> ch.rowShift
	if ch.bankPow2 {
		return int(row & ch.bankMask), row >> ch.bankShift
	}
	return int(row % uint64(ch.cfg.Banks)), row / uint64(ch.cfg.Banks)
}

// Tick advances the channel to time now: it retires finished requests
// (returned to the caller) and issues at most one queued request. The
// returned slice is valid until the next Tick call.
func (ch *Channel) Tick(now float64) []*Request {
	// Completions must come back in time order. The shared bus serializes
	// Done times in issue order (each Done starts at or after the previous
	// busFree), so inflight is sorted and the retired requests are exactly
	// its leading run — no filtering or sorting pass needed.
	done := ch.doneBuf[:0]
	if cut := ch.retireCut(now); cut > 0 {
		done = append(done, ch.inflight[:cut]...)
		n := copy(ch.inflight, ch.inflight[cut:])
		ch.inflight = ch.inflight[:n]
	}
	ch.doneBuf = done

	if len(ch.readQ) == 0 && len(ch.writeQ) == 0 {
		ch.nextEv = ch.headDone()
		return done
	}
	// FR-FCFS over ready banks with read priority: demand reads block
	// SMs, while writebacks are posted, so the scheduler serves reads
	// first and drains writes opportunistically — switching to write-
	// drain mode when the write queue passes its high-water mark
	// (standard memory-controller policy). Within each class, pass 1
	// takes the oldest request hitting an open row of a ready bank;
	// pass 2 the oldest request with a ready bank. Requests whose banks
	// are still busy stay queued so row hits behind them can bypass —
	// the essence of FR-FCFS.
	writeDrain := len(ch.writeQ) >= ch.cfg.QueueDepth*3/4
	first, second := &ch.readQ, &ch.writeQ
	if writeDrain {
		first, second = &ch.writeQ, &ch.readQ
	}
	q := first
	pick, elig := pickEligible(ch, *first, now)
	if pick < 0 {
		q = second
		var elig2 float64
		pick, elig2 = pickEligible(ch, *second, now)
		if elig2 < elig {
			elig = elig2
		}
	}
	if pick < 0 {
		// Nothing issueable: both scans saw every queued request, so elig
		// is the exact earliest future eligibility.
		if hd := ch.headDone(); hd < elig {
			elig = hd
		}
		ch.nextEv = elig
		return done
	}
	r := (*q)[pick]
	*q = append((*q)[:pick], (*q)[pick+1:]...)
	ch.issue(r, now)
	// After an issue the bank states just changed, so recompute the next
	// issue opportunity from scratch: the earliest eligibility across both
	// class queues (clamped to the next cycle — Tick issues one request
	// per call) or, failing that, the first in-flight completion, which is
	// finite here since the issue just went in flight.
	ev := ch.minElig(ch.readQ, now)
	if ev > now+1 {
		if e := ch.minElig(ch.writeQ, now); e < ev {
			ev = e
		}
	}
	if hd := ch.headDone(); hd < ev {
		ev = hd
	}
	ch.nextEv = ev
	return done
}

// retireCut returns the length of inflight's leading run of requests
// finished at time now.
func (ch *Channel) retireCut(now float64) int {
	cut := 0
	for cut < len(ch.inflight) && ch.inflight[cut].Done <= now {
		cut++
	}
	return cut
}

// minElig returns the earliest future time a request in q becomes
// issueable under the current bank states, clamped to now+1 (a request
// already eligible can only be served by the next Tick call); +Inf for
// an empty queue.
func (ch *Channel) minElig(q []*Request, now float64) float64 {
	min := math.Inf(1)
	for _, r := range q {
		t := r.Arrival
		if ready := ch.banks[r.bank].readyAt; ready > t {
			t = ready
		}
		if t <= now {
			return now + 1
		}
		if t < min {
			min = t
		}
	}
	return min
}

// headDone returns the earliest in-flight completion time, or +Inf. The
// shared bus serializes Done times in issue order, so inflight is sorted
// and its head is the minimum.
func (ch *Channel) headDone() float64 {
	if len(ch.inflight) > 0 {
		return ch.inflight[0].Done
	}
	return math.Inf(1)
}

// pickEligible returns the index to issue within one class queue,
// preferring the oldest open-row hit on a ready bank, then the oldest
// request on a ready bank; -1 if none is issueable now. The second
// return is the earliest future eligibility among the requests scanned —
// exact when the scan completed with no pick, unused otherwise (an early
// row-hit return leaves it partial).
func pickEligible(ch *Channel, q []*Request, now float64) (int, float64) {
	fallback := -1
	elig := math.Inf(1)
	for i, r := range q {
		bk := &ch.banks[r.bank]
		t := r.Arrival
		if bk.readyAt > t {
			t = bk.readyAt
		}
		if t > now {
			if t < elig {
				elig = t
			}
			continue
		}
		if bk.rowOpen && bk.openRow == r.row {
			return i, elig
		}
		if fallback < 0 {
			fallback = i
		}
	}
	return fallback, elig
}

func (ch *Channel) issue(r *Request, now float64) {
	row := r.row
	bk := &ch.banks[r.bank]
	start := now
	if bk.readyAt > start {
		start = bk.readyAt
	}
	// prepLat is the row preparation time before the column command; TCL
	// then elapses before data, which occupies the bus for the burst.
	// The bank accepts its next column command after the burst drains
	// (tCCD ≈ burst), so open-row streams run at full bus rate while the
	// CAS latency pipelines.
	var prepLat float64
	switch {
	case bk.rowOpen && bk.openRow == row:
		prepLat = 0
		ch.stats.RowHits++
	case bk.rowOpen:
		prepLat = ch.cfg.TRP + ch.cfg.TRCD
		ch.stats.RowMisses++
	default:
		prepLat = ch.cfg.TRCD
		ch.stats.RowMisses++
	}
	bk.rowOpen = true
	bk.openRow = row
	burst := float64(ch.cfg.LineBytes) / ch.cfg.BytesPerCycle
	colCmd := start + prepLat
	dataStart := colCmd + ch.cfg.TCL
	if ch.busFree > dataStart {
		dataStart = ch.busFree
	}
	r.Done = dataStart + burst
	ch.busFree = r.Done
	bk.readyAt = colCmd + burst
	ch.inflight = append(ch.inflight, r)

	if r.Write {
		ch.stats.Writes++
	} else {
		ch.stats.Reads++
	}
	ch.stats.Bytes += uint64(ch.cfg.LineBytes)
}

// NextEvent lower-bounds the next time a Tick call can change channel
// state: the first in-flight completion, or the first instant a queued
// request becomes issueable (its arrival passed and its bank ready).
// Tick calls strictly before the returned time are guaranteed no-ops,
// which is what lets the simulator fast-forward over DRAM dead time.
// Returns +Inf when the channel is empty. The bound may lie in the past
// or be conservatively early (Tick issues one request per call and
// Enqueue estimates with the bank's current readyAt); a Tick at a
// too-early bound is a harmless no-op that re-tightens it.
func (ch *Channel) NextEvent() float64 { return ch.nextEv }

// Drain advances time until everything queued and in flight finishes,
// returning the completion time of the last request.
func (ch *Channel) Drain(now float64) float64 {
	last := now
	for ch.QueueLen() > 0 || len(ch.inflight) > 0 {
		done := ch.Tick(now)
		for _, r := range done {
			if r.Done > last {
				last = r.Done
			}
		}
		now++
	}
	return last
}

// Stats returns accumulated counters.
func (ch *Channel) Stats() Stats { return ch.stats }

// Busy reports whether the channel still has pending work.
func (ch *Channel) Busy() bool { return ch.QueueLen() > 0 || len(ch.inflight) > 0 }
