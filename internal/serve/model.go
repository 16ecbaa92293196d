package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"seal"
	"seal/internal/secure"
	"seal/internal/tensor"
)

// Admission errors. The HTTP layer maps these to status codes with
// errors.Is (429 and 503); they are exported so load drivers can branch
// on them too.
var (
	// ErrQueueFull reports that the model's bounded request queue had no
	// free slot — the backpressure signal.
	ErrQueueFull = errors.New("serve: request queue full")

	// ErrShuttingDown reports an admission attempt against a model (or
	// registry) that is draining for shutdown.
	ErrShuttingDown = errors.New("serve: shutting down")

	// ErrBadInput reports a malformed inference request (wrong input
	// length, undecodable body).
	ErrBadInput = errors.New("serve: bad input")
)

// maxRetryAfterS caps the derived Retry-After hint so a momentarily
// stalled drain rate never tells clients to go away for minutes.
const maxRetryAfterS = 30

// deployment is one immutable generation of a hosted model: the
// Prepared bundle (plan, layout, image sealed under the tenant's
// sub-key) and one engine slot per dispatcher worker, each a streaming
// engine over that image with its preallocated workspaces. Hot-swap
// replaces the whole deployment atomically; each slot belongs to one
// worker for the deployment's whole life, and in-flight batches keep
// their deployment alive until its workers exit.
type deployment struct {
	spec     ModelSpec
	gen      int64
	prep     *seal.Prepared
	slots    []*engineSlot
	inC      int
	inH      int
	inW      int
	inputLen int // inC*inH*inW floats per sample

	// retired is closed by install() the moment this deployment is
	// swapped out. Each dispatcher worker selects on it while idle: on
	// retirement the worker exits, while the replacement deployment's
	// workers — started before the signal — keep draining the queue.
	retired chan struct{}
	// workers counts this deployment's running dispatcher workers.
	workers sync.WaitGroup
}

// engineSlot is one worker's engine and dispatch workspace, sized once
// at install so the steady-state batch path performs no heap
// allocations: a preallocated input tensor wide enough for MaxBatch
// samples, the reusable batch slice, and the batching-window timer.
type engineSlot struct {
	eng   *secure.Engine
	xbuf  []float32     // MaxBatch*inputLen backing store
	x     tensor.Tensor // header re-pointed at xbuf[:n*inputLen] per batch
	batch []*pending    // reusable batch assembly, cap MaxBatch
	timer *time.Timer   // reusable window timer, armed only when widening pays
}

func newEngineSlot(eng *secure.Engine, maxBatch, inputLen int) *engineSlot {
	return &engineSlot{
		eng:   eng,
		xbuf:  make([]float32, maxBatch*inputLen),
		batch: make([]*pending, 0, maxBatch),
	}
}

// pending is one admitted inference request waiting for its batch. Its
// buffers are pooled per hosted model and recycled after the response
// is consumed, so a warm admit→dispatch→respond round trip allocates
// nothing. The response channel is buffered so the batch runner never
// blocks on a departed client; a request abandoned mid-wait must NOT be
// recycled (its result may still land).
type pending struct {
	input  []float32 // the sample, filled by the admitter; cap reused
	logits []float32 // this sample's logits row, written by the runner
	raw    []byte    // HTTP raw-f32 body/response scratch; cap reused
	resp   chan result
}

type result struct {
	logits []float32 // valid until the pending is recycled
	gen    int64
	batch  int
	err    error
}

// modelStats are the per-model serving counters, updated atomically on
// the hot path and snapshotted by the stats endpoint.
type modelStats struct {
	requests atomic.Int64
	rejected atomic.Int64
	batches  atomic.Int64
	items    atomic.Int64
	maxBatch atomic.Int64
	swaps    atomic.Int64

	verifyFailures atomic.Int64
}

// hostedModel is one registry entry: a bounded admission queue, one
// dispatcher worker per engine slot, and the current deployment. The
// admission path takes only an RLock and a non-blocking channel send;
// everything slow happens on the worker side.
//
// Dispatch is pipelined by construction: each worker owns its engine,
// so batch formation for engine A proceeds while engine B computes, and
// with a single engine the worker's own forward pass is exactly the
// interval during which the queue deepens — the next collect then
// drains it in one sweep, so batches widen toward MaxBatch precisely
// when the system is busiest (the PR 7 collect→acquire serialization
// formed each batch *before* waiting for an engine, which is why its
// average batch stalled near 2 under load).
type hostedModel struct {
	tenant string
	name   string
	cfg    Config

	queue chan *pending
	quit  chan struct{}

	// mu orders admissions against stop() and serializes installs: an
	// admission holds RLock while it checks stopped and enqueues, so
	// once stop() has set stopped under Lock and closed quit, the queue
	// can only shrink and the final drain leaves nothing unanswered.
	mu      sync.RWMutex
	stopped bool
	gen     int64 // last assigned generation, guarded by mu

	dep     atomic.Pointer[deployment]
	workers sync.WaitGroup // dispatcher workers, across all generations

	idle atomic.Int64 // workers parked waiting for a first request
	busy atomic.Int64 // workers currently executing a forward pass

	// rateBits holds the float64 bits of an EWMA of the drain rate in
	// samples/sec, fed by every completed batch; the 429 Retry-After
	// hint is derived from it and the live queue depth.
	rateBits atomic.Uint64

	reqPool sync.Pool // *pending recycling

	stats modelStats
}

func newHostedModel(tenant, name string, cfg Config) *hostedModel {
	return &hostedModel{
		tenant: tenant,
		name:   name,
		cfg:    cfg,
		queue:  make(chan *pending, cfg.QueueDepth),
		quit:   make(chan struct{}),
	}
}

// getPending checks a request out of the recycle pool.
func (h *hostedModel) getPending() *pending {
	if p, ok := h.reqPool.Get().(*pending); ok {
		return p
	}
	return &pending{resp: make(chan result, 1)}
}

// putPending recycles a request whose response has been consumed (or
// that was never enqueued). Requests abandoned while a result may still
// be in flight must be dropped instead — the defensive drain below
// keeps a stray recycle from ever leaking a stale result to the next
// user, but it cannot make an in-flight send safe.
func (h *hostedModel) putPending(p *pending) {
	select {
	case <-p.resp:
	default:
	}
	h.reqPool.Put(p)
}

// install makes dep the model's current deployment and returns its
// generation. Every install starts one dispatcher worker per engine
// slot; on a hot-swap the new workers are started *before* the old
// deployment is retired, so the queue never lacks a consumer, while the
// old workers finish their in-flight batches and exit.
func (h *hostedModel) install(dep *deployment) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return 0, ErrShuttingDown
	}
	h.gen++
	dep.gen = h.gen
	old := h.dep.Swap(dep)
	h.workers.Add(len(dep.slots))
	dep.workers.Add(len(dep.slots))
	for _, slot := range dep.slots {
		go h.worker(dep, slot)
	}
	if old != nil {
		h.stats.swaps.Add(1)
		close(old.retired)
	}
	return dep.gen, nil
}

// admit copies one sample into a pooled request and enqueues it for
// batching, or fails fast with ErrQueueFull / ErrShuttingDown. The
// caller must consume p.resp exactly once and then recycle the request
// with putPending (or abandon it without recycling).
func (h *hostedModel) admit(input []float32) (*pending, error) {
	p := h.getPending()
	if cap(p.input) < len(input) {
		p.input = make([]float32, len(input))
	}
	p.input = p.input[:len(input)]
	copy(p.input, input)
	if err := h.enqueue(p); err != nil {
		h.putPending(p)
		return nil, err
	}
	return p, nil
}

// enqueue admits an already-filled pooled request. The input length is
// validated against the current deployment (and re-checked by the batch
// runner, since a hot-swap can change shapes between admission and
// execution).
func (h *hostedModel) enqueue(p *pending) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.stopped {
		return ErrShuttingDown
	}
	h.stats.requests.Add(1)
	if want := h.dep.Load().inputLen; len(p.input) != want {
		return fmt.Errorf("%w: input length %d, want %d", ErrBadInput, len(p.input), want)
	}
	select {
	case h.queue <- p:
		return nil
	default:
		h.stats.rejected.Add(1)
		return ErrQueueFull
	}
}

// inputLen returns the current deployment's expected sample length.
func (h *hostedModel) inputLen() int { return h.dep.Load().inputLen }

// stop drains the model completely: no new admissions, queued requests
// answered with ErrShuttingDown, and every worker of every generation
// gone, its in-flight batch finished.
func (h *hostedModel) stop() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.stopped = true
	h.mu.Unlock()
	close(h.quit)
	h.workers.Wait()
	// No worker remains, so the queue can only shrink; answer whatever
	// the workers did not serve before they observed quit.
	for {
		select {
		case p := <-h.queue:
			p.resp <- result{err: ErrShuttingDown}
		default:
			return
		}
	}
}

// worker is one per-engine dispatcher: it owns its slot's engine for
// the deployment's whole lifetime, blocks for a first queued request,
// widens it into a dynamic batch and runs the forward itself. While one
// worker computes, its siblings (or, with a single engine, the queue
// itself) absorb arrivals, so batch formation always happens *after*
// the capacity wait rather than before it.
func (h *hostedModel) worker(dep *deployment, slot *engineSlot) {
	defer h.workers.Done()
	defer dep.workers.Done()
	for {
		h.idle.Add(1)
		select {
		case p := <-h.queue:
			h.idle.Add(-1)
			h.runBatch(dep, slot, h.collect(slot, p))
		case <-dep.retired:
			h.idle.Add(-1)
			return
		case <-h.quit:
			h.idle.Add(-1)
			return
		}
	}
}

// collect widens a batch into the slot's reusable assembly slice. The
// fast path drains whatever the queue already holds — a deep queue
// therefore fills the batch with no timer at all (the "shrink the
// window when busy" limit case). A straggler window is armed only when
// the batch is still short AND no other worker is idle: if an idle
// engine exists, arrivals are picked up immediately anyway and waiting
// would only add latency, whereas with every engine busy the window
// trades a bounded delay for a wider (cheaper per sample) forward.
func (h *hostedModel) collect(slot *engineSlot, first *pending) []*pending {
	batch := append(slot.batch[:0], first)
	max := h.cfg.MaxBatch
	if max > 1 {
		for len(batch) < max {
			select {
			case p := <-h.queue:
				batch = append(batch, p)
				continue
			default:
			}
			break
		}
		if len(batch) < max && h.cfg.BatchWindow > 0 && h.idle.Load() == 0 {
			h.armTimer(slot)
			open := true
			for open && len(batch) < max {
				select {
				case p := <-h.queue:
					batch = append(batch, p)
				case <-slot.timer.C:
					open = false
				case <-h.quit:
					open = false
				}
			}
			// A still-armed timer (batch filled, or quit) is left to fire;
			// the next armTimer stops and drains it.
		}
	}
	slot.batch = batch
	return batch
}

// armTimer (re)arms the slot's reusable window timer, draining a stale
// fire left over from a previous collect that returned early.
func (h *hostedModel) armTimer(slot *engineSlot) {
	if slot.timer == nil {
		slot.timer = time.NewTimer(h.cfg.BatchWindow)
		return
	}
	if !slot.timer.Stop() {
		select {
		case <-slot.timer.C:
		default:
		}
	}
	slot.timer.Reset(h.cfg.BatchWindow)
}

// runBatch executes one batch on the slot's engine and fans the
// logits rows back to their requests. Inputs are packed into the slot's
// preallocated batch tensor and each row is copied into its request's
// pooled logits buffer, so a warm batch performs no heap allocations;
// engine outputs are valid only until the engine's next Forward, which
// cannot happen before this worker's next batch. A failed forward
// answers every request of the batch with its error, never logits.
func (h *hostedModel) runBatch(dep *deployment, slot *engineSlot, batch []*pending) {
	h.busy.Add(1)
	start := time.Now()
	n := len(batch)
	in := dep.inputLen
	slot.x.Data = slot.xbuf[:n*in]
	slot.x.Shape = append(slot.x.Shape[:0], n, dep.inC, dep.inH, dep.inW)
	ok := 0
	for i, p := range batch {
		if len(p.input) != in {
			// The deployment changed shape between admission and now.
			p.resp <- result{err: fmt.Errorf("%w: input length %d no longer matches deployment (hot-swap changed the architecture)", ErrBadInput, len(p.input))}
			batch[i] = nil
			continue
		}
		copy(slot.xbuf[i*in:(i+1)*in], p.input)
		ok++
	}
	if ok == 0 {
		h.busy.Add(-1)
		return
	}
	logits, err := slot.eng.Forward(&slot.x)
	if err != nil {
		if errors.Is(err, seal.ErrTampered) {
			h.stats.verifyFailures.Add(1)
		}
		for _, p := range batch {
			if p != nil {
				p.resp <- result{err: err}
			}
		}
		h.busy.Add(-1)
		return
	}
	per := len(logits.Data) / n
	h.stats.batches.Add(1)
	h.stats.items.Add(int64(ok))
	for {
		cur := h.stats.maxBatch.Load()
		if int64(n) <= cur || h.stats.maxBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	for i, p := range batch {
		if p == nil {
			continue
		}
		if cap(p.logits) < per {
			p.logits = make([]float32, per)
		}
		out := p.logits[:per]
		copy(out, logits.Data[i*per:(i+1)*per])
		p.resp <- result{logits: out, gen: dep.gen, batch: n}
	}
	h.busy.Add(-1)
	h.observeDrain(ok, time.Since(start))
}

// observeDrain folds one completed batch into the drain-rate EWMA.
func (h *hostedModel) observeDrain(items int, d time.Duration) {
	if d <= 0 {
		return
	}
	r := float64(items) / d.Seconds()
	if old := math.Float64frombits(h.rateBits.Load()); old > 0 {
		const alpha = 0.2
		r = old + alpha*(r-old)
	}
	h.rateBits.Store(math.Float64bits(r))
}

// drainRate returns the EWMA drain rate in samples/sec (0 until the
// first batch completes).
func (h *hostedModel) drainRate() float64 {
	return math.Float64frombits(h.rateBits.Load())
}

// retryAfterHint derives the 429 backoff from the live queue depth and
// the recent drain rate: roughly how long until the present backlog
// (plus the rejected request itself) has drained. Before any batch has
// completed it falls back to the configured fixed hint; the result is
// clamped to [1, maxRetryAfterS] whole seconds.
func (h *hostedModel) retryAfterHint() int {
	fallback := int(h.cfg.RetryAfter / time.Second)
	if fallback < 1 {
		fallback = 1
	}
	rate := h.drainRate()
	if rate <= 0 {
		return fallback
	}
	secs := int(math.Ceil(float64(len(h.queue)+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterS {
		secs = maxRetryAfterS
	}
	return secs
}
