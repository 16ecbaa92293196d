package gpu

import (
	"seal/internal/cache"
	"seal/internal/dram"
	"seal/internal/engine"
)

// memReq is one SM memory request flowing through a partition.
type memReq struct {
	smID  int
	addr  uint64
	write bool
	// counter-mode read rendezvous: both the data line and the one-time
	// pad must be ready before the plaintext can be returned. -1 marks
	// "not yet known".
	dataDone float64
	padDone  float64
	// direct-mode reads pass through the engine after the data arrives
	engineAfterData bool
	// integrity rendezvous: 0 = no MAC needed, 1 = MAC fetch in flight,
	// 2 = MAC ready at macReadyAt. A read's response is held until the
	// MAC is verified.
	macState   int
	macReadyAt float64
	// respHeld buffers the data-path completion while the MAC is pending.
	respHeld bool
	respAt   float64
}

type tagKind int

const (
	tagWrite           tagKind = iota // fire-and-forget DRAM write
	tagData                           // data-line fetch for a read
	tagCounter                        // counter-block fetch for a read
	tagCounterForWrite                // counter-block fetch blocking an encrypted writeback
	tagMAC                            // MAC-block fetch for an authenticated read
)

type dramTag struct {
	kind tagKind
	rec  *memReq
	// writeAddr is the data line waiting on a tagCounterForWrite fetch.
	writeAddr uint64
}

// reqNode bundles a DRAM request with its routing tag so the pair can be
// recycled together once the channel retires it. Request.Tag carries the
// *reqNode itself — a pointer fits the interface data word, so re-tagging
// a pooled node never allocates, where boxing a dramTag value did.
type reqNode struct {
	tag dramTag
	req dram.Request
}

type arrival struct {
	rec *memReq
	at  float64
}

type response struct {
	smID    int
	readyAt float64
}

// partition is one memory controller: L2 slice, AES engine, counter
// cache and GDDR5 channel.
type partition struct {
	id  int
	cfg *Config
	l2  *cache.Cache
	eng *engine.Engine
	cc  *engine.CounterCache
	mac *engine.CounterCache
	ch  *dram.Channel

	arrivals  []arrival       // FIFO of incoming SM requests (monotone .at)
	arrHead   int             // consumed-prefix length of arrivals
	overflowR []*dram.Request // reads waiting for DRAM read-queue space
	overflowW []*dram.Request // writes waiting for DRAM write-queue space
	responses []response      // completed requests to route back
	// pendCyc stages requests issued during a frame of the event-driven
	// scheduler, one bucket per frame cycle. SMs run in id order within
	// the frame, so each bucket accumulates in SM order by itself and
	// mergePending is a straight concatenation — the (cycle, SM) order
	// the per-cycle loop would have produced, with no comparisons.
	pendCyc   [][]arrival
	reqID     uint64
	freeNodes []*reqNode // retired request+tag pairs awaiting reuse
	freeRecs  []*memReq  // answered SM requests awaiting reuse

	extraReads  uint64 // counter-block fetches
	extraWrites uint64 // counter/dirty-line writebacks
	macReads    uint64 // MAC-block fetches
	macWrites   uint64 // MAC-block writebacks
}

func newPartition(id int, cfg *Config) *partition {
	p := &partition{
		id:      id,
		cfg:     cfg,
		l2:      cache.New(cfg.L2Slice),
		eng:     engine.New(cfg.EngineSpec, cfg.CoreClockHz),
		ch:      dram.NewChannel(cfg.DRAM),
		pendCyc: make([][]arrival, frameLen(cfg.InterconnectLat)),
	}
	if cfg.Mode == ModeCounter {
		p.cc = engine.NewCounterCache(cfg.Counter)
	}
	if cfg.Integrity && cfg.Mode != ModeNone {
		p.mac = engine.NewCounterCache(cfg.MAC)
	}
	return p
}

// counterLocalAddr maps a global data address to the partition-local
// line space used for counter bookkeeping. Data lines interleave across
// channels, so without this translation a counter block's 8 counters
// would be split across partitions, destroying the spatial locality
// counter caching depends on. Each memory controller keeps counters for
// its own lines, packed densely (Yan et al. [24] organize per-controller
// counter storage the same way).
func (p *partition) counterLocalAddr(addr uint64) uint64 {
	line := addr / uint64(p.cfg.LineBytes)
	return line / uint64(p.cfg.Channels) * uint64(p.cfg.LineBytes)
}

func (p *partition) protected(addr uint64) bool {
	if p.cfg.Mode == ModeNone || p.cfg.Protected == nil {
		return false
	}
	return p.cfg.Protected(addr)
}

// accept queues an SM request that reaches the partition at time at.
func (p *partition) accept(rec *memReq, at float64) {
	p.arrivals = append(p.arrivals, arrival{rec: rec, at: at})
}

func (p *partition) dramSubmit(r *dram.Request) {
	over := &p.overflowR
	if r.Write {
		over = &p.overflowW
	}
	if len(*over) == 0 && p.ch.Enqueue(r) {
		return
	}
	*over = append(*over, r)
}

// getNode returns a recycled request node or makes a new one. Nodes go
// back on the free list when the channel retires them in tick.
func (p *partition) getNode() *reqNode {
	if n := len(p.freeNodes); n > 0 {
		nd := p.freeNodes[n-1]
		p.freeNodes = p.freeNodes[:n-1]
		return nd
	}
	return &reqNode{}
}

// getRec returns a recycled SM request record or makes a new one.
// Records recycle in respond, the single point where a request's last
// reference (the emitted response) lets go of it.
func (p *partition) getRec(smID int, addr uint64, write bool) *memReq {
	if n := len(p.freeRecs); n > 0 {
		rec := p.freeRecs[n-1]
		p.freeRecs = p.freeRecs[:n-1]
		*rec = memReq{smID: smID, addr: addr, write: write}
		return rec
	}
	return &memReq{smID: smID, addr: addr, write: write}
}

func (p *partition) dramRead(addr uint64, at float64, tag dramTag) {
	p.reqID++
	nd := p.getNode()
	nd.tag = tag
	nd.req = dram.Request{ID: p.reqID, Addr: addr, Arrival: at, Tag: nd}
	p.dramSubmit(&nd.req)
}

func (p *partition) dramWrite(addr uint64, at float64) {
	p.reqID++
	nd := p.getNode()
	nd.tag = dramTag{kind: tagWrite}
	nd.req = dram.Request{ID: p.reqID, Addr: addr, Write: true, Arrival: at, Tag: nd}
	p.dramSubmit(&nd.req)
}

func (p *partition) respond(rec *memReq, at float64) {
	// Authenticated reads release data only after MAC verification.
	switch rec.macState {
	case 1: // MAC still in flight: hold the data-path completion
		rec.respHeld = true
		rec.respAt = at
		return
	case 2:
		if rec.macReadyAt > at {
			at = rec.macReadyAt
		}
	}
	p.responses = append(p.responses, response{smID: rec.smID, readyAt: at + p.cfg.InterconnectLat})
	// The response is the last reference to rec: every DRAM fetch tagged
	// with it (data, counter, MAC) has retired by the time the reply is
	// emitted — counter reads rendezvous on dataDone/padDone, MAC reads
	// hold the reply via respHeld — so the record can be reused.
	p.freeRecs = append(p.freeRecs, rec)
}

// macLookup starts the MAC access for an authenticated protected read.
// On a hit, verification overlaps the data fetch and completes MACVerify
// cycles from now; on a miss the MAC block is fetched from DRAM first.
func (p *partition) macLookup(rec *memReq, now float64, write bool) {
	if p.mac == nil || !p.protected(rec.addr) {
		return
	}
	res := p.mac.Lookup(p.counterLocalAddr(rec.addr), write)
	if res.Writeback {
		p.macWrites++
		p.dramWrite(res.WritebackAddr, now)
	}
	if write {
		return // MAC update is absorbed by the (dirty) MAC cache block
	}
	if res.Hit {
		rec.macState = 2
		rec.macReadyAt = now + p.cfg.MACVerify
		return
	}
	rec.macState = 1
	p.macReads++
	p.dramRead(res.MissAddr, now, dramTag{kind: tagMAC, rec: rec})
}

// handleEviction issues the DRAM writeback of a dirty L2 victim,
// routing it through the encryption path when the line is protected.
func (p *partition) handleEviction(addr uint64, now float64) {
	if !p.protected(addr) {
		p.dramWrite(addr, now)
		return
	}
	if p.mac != nil {
		res := p.mac.Lookup(p.counterLocalAddr(addr), true)
		if res.Writeback {
			p.macWrites++
			p.dramWrite(res.WritebackAddr, now)
		}
		if !res.Hit {
			// MAC block must be resident to update; fetch it (read-modify)
			p.macReads++
			p.dramRead(res.MissAddr, now, dramTag{kind: tagWrite})
		}
	}
	switch p.cfg.Mode {
	case ModeDirect:
		done := p.eng.Process(now, p.cfg.LineBytes)
		p.dramWrite(addr, done)
	case ModeCounter:
		ctr := p.cc.Lookup(p.counterLocalAddr(addr), true) // a write advances the line counter
		if ctr.Writeback {
			p.extraWrites++
			p.dramWrite(ctr.WritebackAddr, now)
		}
		if ctr.Hit {
			pad := p.eng.Process(now, p.cfg.LineBytes)
			p.dramWrite(addr, pad)
		} else {
			p.extraReads++
			p.dramRead(ctr.MissAddr, now, dramTag{kind: tagCounterForWrite, writeAddr: addr})
		}
	}
}

// handleArrival runs the L2 and (on miss) the fetch path for one SM
// request.
func (p *partition) handleArrival(rec *memReq, now float64) {
	res := p.l2.Access(rec.addr, rec.write)
	if res.Writeback {
		p.handleEviction(res.EvictedAddr, now)
	}
	if rec.write {
		// Write-validate policy: coalesced full-line stores allocate the
		// line dirty without fetching it; the cost surfaces at eviction.
		p.respond(rec, now+p.cfg.L2Latency)
		return
	}
	if res.Hit {
		p.respond(rec, now+p.cfg.L2Latency)
		return
	}
	if !p.protected(rec.addr) {
		p.dramRead(rec.addr, now, dramTag{kind: tagData, rec: rec})
		return
	}
	p.macLookup(rec, now, false)
	switch p.cfg.Mode {
	case ModeDirect:
		rec.engineAfterData = true
		p.dramRead(rec.addr, now, dramTag{kind: tagData, rec: rec})
	case ModeCounter:
		rec.dataDone, rec.padDone = -1, -1
		ctr := p.cc.Lookup(p.counterLocalAddr(rec.addr), false)
		if ctr.Writeback {
			p.extraWrites++
			p.dramWrite(ctr.WritebackAddr, now)
		}
		p.dramRead(rec.addr, now, dramTag{kind: tagData, rec: rec})
		if ctr.Hit {
			// Pad generation overlaps the data fetch: this is counter
			// mode's latency advantage over direct encryption.
			rec.padDone = p.eng.Process(now, p.cfg.LineBytes)
			p.maybeFinishCounterRead(rec)
		} else {
			p.extraReads++
			p.dramRead(ctr.MissAddr, now, dramTag{kind: tagCounter, rec: rec})
		}
	}
}

func (p *partition) maybeFinishCounterRead(rec *memReq) {
	if rec.dataDone < 0 || rec.padDone < 0 {
		return
	}
	at := rec.dataDone
	if rec.padDone > at {
		at = rec.padDone
	}
	p.respond(rec, at+1) // one cycle for the XOR
}

// tick advances the partition by one core cycle.
func (p *partition) tick(now float64) {
	// flush queued DRAM submissions in order, per class
	for len(p.overflowR) > 0 && p.ch.Enqueue(p.overflowR[0]) {
		p.overflowR = p.overflowR[1:]
	}
	for len(p.overflowW) > 0 && p.ch.Enqueue(p.overflowW[0]) {
		p.overflowW = p.overflowW[1:]
	}
	for _, dr := range p.ch.Tick(now) {
		nd := dr.Tag.(*reqNode)
		tag := nd.tag
		switch tag.kind {
		case tagWrite:
			// fire-and-forget
		case tagData:
			rec := tag.rec
			switch {
			case rec.engineAfterData:
				done := p.eng.Process(dr.Done, p.cfg.LineBytes)
				p.respond(rec, done)
			case p.cfg.Mode == ModeCounter && p.protected(rec.addr):
				rec.dataDone = dr.Done
				p.maybeFinishCounterRead(rec)
			default:
				p.respond(rec, dr.Done)
			}
		case tagCounter:
			rec := tag.rec
			rec.padDone = p.eng.Process(dr.Done, p.cfg.LineBytes)
			p.maybeFinishCounterRead(rec)
		case tagCounterForWrite:
			pad := p.eng.Process(dr.Done, p.cfg.LineBytes)
			p.dramWrite(tag.writeAddr, pad)
		case tagMAC:
			rec := tag.rec
			rec.macState = 2
			rec.macReadyAt = dr.Done + p.cfg.MACVerify
			if rec.respHeld {
				rec.respHeld = false
				p.respond(rec, rec.respAt)
			}
		}
		// Recycle only after the handler: a case that issues a fresh DRAM
		// request could otherwise reuse this node while dr is still live.
		p.freeNodes = append(p.freeNodes, nd)
	}
	// process arrivals due this cycle
	for _, a := range p.arrivals[p.arrHead:] {
		if a.at > now {
			break
		}
		p.handleArrival(a.rec, now)
		p.arrHead++
	}
	if p.arrHead == len(p.arrivals) {
		p.arrivals = p.arrivals[:0]
		p.arrHead = 0
	}
}

// mergePending drains the per-cycle staged buckets into the arrival
// FIFO. Bucket order is frame-cycle order and each bucket is already in
// SM order, so concatenation reproduces exactly the (cycle, SM) arrival
// sequence the per-cycle reference loop appends.
func (p *partition) mergePending() {
	if p.arrHead >= 256 {
		// Reclaim the consumed prefix once it dwarfs the live window so
		// the FIFO's backing array stops growing with total traffic.
		n := copy(p.arrivals, p.arrivals[p.arrHead:])
		p.arrivals = p.arrivals[:n]
		p.arrHead = 0
	}
	for i, b := range p.pendCyc {
		if len(b) > 0 {
			p.arrivals = append(p.arrivals, b...)
			p.pendCyc[i] = b[:0]
		}
	}
}

// nextEvent returns the earliest time a tick call can change partition
// state: the next SM-request arrival, the next DRAM completion or
// issue opportunity, or — when an overflowed submission is waiting and
// its class queue has room — the immediately following cycle (tick
// flushes overflow before anything else, so space found now is consumed
// at the next tick). Ticks at cycles strictly before the returned time
// are no-ops. Returns now for "next cycle", +Inf for idle.
func (p *partition) nextEvent(now float64) float64 {
	if (len(p.overflowR) > 0 && p.ch.CanEnqueue(false)) ||
		(len(p.overflowW) > 0 && p.ch.CanEnqueue(true)) {
		return now
	}
	ev := p.ch.NextEvent()
	// arrivals is a FIFO with monotone .at (accept stamps each request
	// with the current cycle plus the fixed interconnect latency), so the
	// head is the earliest.
	if p.arrHead < len(p.arrivals) && p.arrivals[p.arrHead].at < ev {
		ev = p.arrivals[p.arrHead].at
	}
	return ev
}

// busy reports whether the partition still has pending work.
func (p *partition) busy() bool {
	return p.arrHead < len(p.arrivals) || len(p.overflowR) > 0 || len(p.overflowW) > 0 || len(p.responses) > 0 || p.ch.Busy()
}

// PartStats aggregates one partition's counters.
type PartStats struct {
	L2                 cache.Stats
	DRAM               dram.Stats
	Engine             engine.Stats
	Counter            cache.Stats // zero-valued unless counter mode
	ExtraCounterReads  uint64
	ExtraCounterWrites uint64
	MACReads           uint64
	MACWrites          uint64
}

func (p *partition) stats() PartStats {
	st := PartStats{
		L2:                 p.l2.Stats(),
		DRAM:               p.ch.Stats(),
		Engine:             p.eng.Stats(),
		ExtraCounterReads:  p.extraReads,
		ExtraCounterWrites: p.extraWrites,
		MACReads:           p.macReads,
		MACWrites:          p.macWrites,
	}
	if p.cc != nil {
		st.Counter = p.cc.Stats()
	}
	return st
}
