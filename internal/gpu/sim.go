package gpu

import (
	"fmt"
	"math"
	"os"
)

// respQueue holds one SM's pending response-ready times, sorted
// ascending. Responses arrive nearly in time order, so push is almost
// always an append and the rare out-of-order arrival shifts a handful of
// tail entries; pop is a head-index bump. That beats a binary heap —
// whose every pop sifts through the full MSHR window — on the
// simulator's hottest path, while popping the exact same value sequence.
type respQueue struct {
	buf  []float64
	head int
}

func (q *respQueue) push(v float64) {
	if q.head >= 64 {
		// Reclaim the consumed prefix once it dwarfs the live window
		// (bounded by the MSHR count), keeping the buffer from growing
		// with total traffic.
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	buf := append(q.buf, v)
	i := len(buf) - 2
	for i >= q.head && buf[i] > v {
		i--
	}
	if i+2 < len(buf) {
		copy(buf[i+2:], buf[i+1:len(buf)-1])
	}
	buf[i+1] = v
	q.buf = buf
}

func (q *respQueue) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

func (q *respQueue) empty() bool { return q.head == len(q.buf) }

// min returns the earliest pending time; the queue must be non-empty.
func (q *respQueue) min() float64 { return q.buf[q.head] }

// sm is the in-order trace-replay model of one streaming multiprocessor.
type sm struct {
	stream      Stream
	opIdx       int
	computeLeft int
	outstanding int
	resp        respQueue
	warpInsts   int64
	stallCycles int64
	finishCycle float64 // cycle during which the SM became finished
}

func (s *sm) loadOp() {
	if s.opIdx < len(s.stream) {
		s.computeLeft = s.stream[s.opIdx].Compute
	}
}

func (s *sm) finished() bool {
	return s.opIdx >= len(s.stream) && s.outstanding == 0
}

// Result summarizes one simulation run.
type Result struct {
	Cycles      float64
	WarpInsts   int64
	ThreadInsts int64
	IPC         float64 // thread instructions per cycle (GPGPU-Sim convention)
	MemRequests int64
	StallCycles int64
	Parts       []PartStats
}

// DRAMBytes returns total bytes moved on all channels.
func (r Result) DRAMBytes() uint64 {
	var n uint64
	for _, p := range r.Parts {
		n += p.DRAM.Bytes
	}
	return n
}

// EngineBytes returns total bytes through all AES engines.
func (r Result) EngineBytes() uint64 {
	var n uint64
	for _, p := range r.Parts {
		n += p.Engine.Bytes
	}
	return n
}

// CounterHitRate returns the aggregate counter-cache hit rate.
func (r Result) CounterHitRate() float64 {
	var hits, misses uint64
	for _, p := range r.Parts {
		hits += p.Counter.Hits
		misses += p.Counter.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// L2HitRate returns the aggregate L2 hit rate.
func (r Result) L2HitRate() float64 {
	var hits, misses uint64
	for _, p := range r.Parts {
		hits += p.L2.Hits
		misses += p.L2.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Sim is a simulated GPU instance. Caches and engine state persist
// across Run calls so multi-kernel workloads (successive NN layers) see
// warm caches; each independent experiment builds a fresh Sim with New.
//
// Run advances time with next-event fast-forward by default: when no SM
// can issue and no partition has work due, the clock jumps straight to
// the earliest pending event instead of ticking idle cycles. The
// per-cycle reference scheduler is preserved behind Config.Reference /
// SEAL_SIM_REF=1 and both produce bit-identical Results (DESIGN.md §12).
type Sim struct {
	cfg   Config
	parts []*partition
	now   float64
	ref   bool // per-cycle reference scheduler instead of fast-forward
	// frameBase is the first cycle of the frame the SM phase is currently
	// replaying; issue uses it to pick the staging bucket for a request.
	frameBase float64
	// smPool recycles SM state (and the response-queue buffers inside)
	// across Runs, so a warmed simulator replays a workload without
	// growing the heap.
	smPool []*sm
}

// frameLen returns the event-driven scheduler's frame length for an
// interconnect latency: the conservative lookahead window, at least one
// cycle.
func frameLen(lat float64) int {
	if l := int(math.Floor(lat)); l > 1 {
		return l
	}
	return 1
}

// New constructs a simulator; it returns an error on invalid config.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, ref: cfg.Reference || os.Getenv("SEAL_SIM_REF") == "1"}
	for i := 0; i < cfg.Channels; i++ {
		s.parts = append(s.parts, newPartition(i, &s.cfg))
	}
	return s, nil
}

// channelOf maps a line address to its memory partition (fine-grained
// line interleaving, the common GPU address mapping).
func (s *Sim) channelOf(addr uint64) int {
	return int((addr / uint64(s.cfg.LineBytes)) % uint64(s.cfg.Channels))
}

// Run replays one per-SM stream set to completion and returns aggregate
// results. len(streams) must not exceed NumSMs; missing streams idle.
func (s *Sim) Run(streams []Stream) (Result, error) {
	if len(streams) > s.cfg.NumSMs {
		return Result{}, fmt.Errorf("gpu: %d streams for %d SMs", len(streams), s.cfg.NumSMs)
	}
	for len(s.smPool) < len(streams) {
		s.smPool = append(s.smPool, &sm{})
	}
	sms := s.smPool[:len(streams)]
	var totalMem int64
	for i, st := range streams {
		m := sms[i]
		buf := m.resp.buf[:0]
		*m = sm{stream: st}
		m.resp.buf = buf
		m.loadOp()
		totalMem += st.MemOps()
	}
	start := s.now
	if s.ref {
		s.runRef(sms)
	} else {
		s.runFast(sms)
	}
	var warp int64
	var stalls int64
	for _, m := range sms {
		warp += m.warpInsts
		stalls += m.stallCycles
	}
	cycles := s.now - start
	res := Result{
		Cycles:      cycles,
		WarpInsts:   warp,
		ThreadInsts: warp * int64(s.cfg.LanesPerWarp),
		MemRequests: totalMem,
		StallCycles: stalls,
	}
	if cycles > 0 {
		res.IPC = float64(res.ThreadInsts) / cycles
	}
	for _, p := range s.parts {
		res.Parts = append(res.Parts, p.stats())
	}
	return res, nil
}

// runRef is the per-cycle reference scheduler: every core cycle ticks
// every partition and polls every SM, whether or not anything is due.
// It is the seed implementation, kept verbatim as the semantic ground
// truth the fast-forward path is tested against (SEAL_SIM_REF=1).
func (s *Sim) runRef(sms []*sm) {
	active := len(sms)
	for active > 0 || s.partsBusy() {
		active = s.stepCycle(sms)
		s.now++
	}
}

// runFast is the event-driven scheduler. It exploits the interconnect
// latency as conservative lookahead, the classic parallel discrete-event
// trick applied single-threaded: any message between an SM and a
// partition takes at least InterconnectLat cycles to land, so during a
// frame of that many cycles every component's inputs are already known.
// Each partition therefore advances through the whole frame alone,
// hopping from event cycle to event cycle (nextEvent proves the ticks in
// between are no-ops), and then each SM replays its frame in one tight
// loop, bulk-applying stall and full-width-compute spans between its own
// wake-ups — with no global "every SM must be idle" precondition.
// Requests the SMs issue are staged per SM and merged into the partition
// arrival FIFOs at the frame boundary in (cycle, SM) order, exactly the
// order the per-cycle loop would have produced. Results are bit-identical
// to runRef (DESIGN.md §12): every skipped cycle is provably a uniform
// no-op for the component that skipped it, and every timestamp crossing
// the SM/partition boundary is computed by the same code at the same
// simulated time.
func (s *Sim) runFast(sms []*sm) {
	if len(sms) == 0 && !s.partsBusy() {
		return
	}
	start := s.now
	lookahead := float64(frameLen(s.cfg.InterconnectLat))
	active := 0
	for _, m := range sms {
		// An SM finished at entry (empty stream) is observed finished by
		// the reference loop's very first cycle.
		m.finishCycle = start
		if !m.finished() {
			active++
		}
	}
	gMax := math.Inf(-1) // latest cycle whose tick left a partition idle
	for active > 0 || s.partsBusy() {
		end := s.now + lookahead
		for _, p := range s.parts {
			if g := s.runPartFrame(p, sms, end); g > gMax {
				gMax = g
			}
		}
		active = 0
		s.frameBase = s.now
		for id, m := range sms {
			if m.finished() {
				continue
			}
			s.runSMFrame(id, m, end)
			if !m.finished() {
				active++
			}
		}
		for _, p := range s.parts {
			p.mergePending()
		}
		s.now = end
	}
	// The reference loop exits one cycle after the first cycle T whose
	// step observes every SM finished and leaves every partition idle;
	// reconstruct that exact clock value from the recorded transition
	// cycles.
	final := start
	for _, m := range sms {
		if m.finishCycle > final {
			final = m.finishCycle
		}
	}
	if gMax > final {
		final = gMax
	}
	s.now = final + 1
}

// runPartFrame advances partition p through the frame [s.now, end): it
// ticks only at event cycles (nextEvent proves the rest are no-ops),
// routes completed responses to the SM queues, and returns the latest
// cycle whose tick left the partition with nothing pending (-Inf if
// none), which runFast needs to reconstruct the exact end-of-run clock.
func (s *Sim) runPartFrame(p *partition, sms []*sm, end float64) float64 {
	idle := math.Inf(-1)
	cur := s.now
	for cur < end {
		if e := p.nextEvent(cur); e > cur {
			if e >= end {
				break
			}
			if c := math.Ceil(e); c > cur {
				cur = c
				if cur >= end {
					break
				}
			}
		}
		p.tick(cur)
		for _, resp := range p.responses {
			sms[resp.smID].resp.push(resp.readyAt)
		}
		p.responses = p.responses[:0]
		if !p.busy() {
			idle = cur
		}
		cur++
	}
	return idle
}

// runSMFrame advances one SM through the frame [s.now, end). Cycles at
// which the SM acts run the exact per-cycle issue body; the spans in
// between fall into three provably-uniform cases that are applied in
// bulk — drained (no per-cycle effect until a response retires),
// full-width compute (IssueWidth warp instructions per cycle), and
// MSHR-stalled (one stall cycle per cycle) — so the accounting matches
// the reference cycle loop bit for bit.
func (s *Sim) runSMFrame(id int, m *sm, end float64) {
	cur := s.now
	w := s.cfg.IssueWidth
	for cur < end {
		for !m.resp.empty() && m.resp.min() <= cur {
			m.resp.pop()
			m.outstanding--
		}
		if m.finished() {
			// Finished by a pop: the reference step checks finished right
			// after retiring responses, so this very cycle observes it.
			m.finishCycle = cur
			return
		}
		s.issue(id, m, cur, true)
		if m.finished() {
			// Finished during issue: the reference step already counted
			// this SM active this cycle and observes the finish at the
			// next cycle's check.
			m.finishCycle = cur + 1
			return
		}
		cur++
		if cur >= end {
			return
		}
		if m.opIdx >= len(m.stream) {
			// Drained: nothing happens until a response retires. Responses
			// not yet in the queue can only ready in a later frame.
			if m.resp.empty() {
				return
			}
			if c := math.Ceil(m.resp.min()); c > cur {
				cur = c
			}
			continue
		}
		if m.computeLeft >= w {
			// Full-width compute horizon, clipped to the frame.
			k := int64(m.computeLeft / w)
			if span := int64(end - cur); k > span {
				k = span
			}
			m.computeLeft -= int(k) * w
			m.warpInsts += k * int64(w)
			cur += float64(k)
			continue
		}
		if m.computeLeft == 0 && !m.stream[m.opIdx].NoMem && m.outstanding >= s.cfg.MaxOutstanding {
			// MSHR-stalled: one stall per cycle until the first retire.
			nx := end
			if !m.resp.empty() {
				if c := math.Ceil(m.resp.min()); c < nx {
					nx = c
				}
			}
			m.stallCycles += int64(nx - cur)
			cur = nx
		}
		// Anything else — residual compute, a NoMem boundary, a memory op
		// with MSHR room — issues next cycle: loop.
	}
}

// stepCycle processes core cycle s.now for the reference scheduler:
// every partition ticks and its responses route to the SM queues, then
// each SM retires due responses and issues. Returns the number of
// unfinished SMs.
func (s *Sim) stepCycle(sms []*sm) int {
	for _, p := range s.parts {
		p.tick(s.now)
		// route responses to SM queues
		for _, resp := range p.responses {
			sms[resp.smID].resp.push(resp.readyAt)
		}
		p.responses = p.responses[:0]
	}
	active := 0
	for id, m := range sms {
		// retire responses
		for !m.resp.empty() && m.resp.min() <= s.now {
			m.resp.pop()
			m.outstanding--
		}
		if m.finished() {
			continue
		}
		active++
		s.issue(id, m, s.now, false)
	}
	return active
}

// issue runs one SM's issue slots for core cycle now. With buffered set
// (the frame scheduler), new memory requests stage in the per-SM pending
// lists for the frame-boundary merge; otherwise (the per-cycle
// reference) they append straight to the partition arrival FIFO, which
// the cycle-major loop order keeps sorted.
func (s *Sim) issue(id int, m *sm, now float64, buffered bool) {
	slots := s.cfg.IssueWidth
	for slots > 0 {
		if m.opIdx >= len(m.stream) {
			return
		}
		op := &m.stream[m.opIdx]
		if m.computeLeft > 0 {
			k := m.computeLeft
			if k > slots {
				k = slots
			}
			m.computeLeft -= k
			slots -= k
			m.warpInsts += int64(k)
			continue
		}
		if op.NoMem {
			m.opIdx++
			m.loadOp()
			continue
		}
		if m.outstanding >= s.cfg.MaxOutstanding {
			m.stallCycles++
			return // structural stall: wait for MSHR
		}
		p := s.parts[s.channelOf(op.Addr)]
		rec := p.getRec(id, op.Addr, op.Write)
		if buffered {
			b := int(now - s.frameBase)
			p.pendCyc[b] = append(p.pendCyc[b], arrival{rec: rec, at: now + s.cfg.InterconnectLat})
		} else {
			p.accept(rec, now+s.cfg.InterconnectLat)
		}
		m.outstanding++
		m.warpInsts++
		slots--
		m.opIdx++
		m.loadOp()
	}
}

func (s *Sim) partsBusy() bool {
	for _, p := range s.parts {
		if p.busy() {
			return true
		}
	}
	return false
}

// Stats returns per-partition statistics accumulated so far.
func (s *Sim) Stats() []PartStats {
	out := make([]PartStats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.stats()
	}
	return out
}

// Now returns the current simulation time in core cycles.
func (s *Sim) Now() float64 { return s.now }
