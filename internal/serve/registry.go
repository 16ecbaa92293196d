// Package serve is the encrypted-inference serving gateway: a
// multi-tenant registry of Prepared model bundles behind a stdlib
// net/http API. Each registered model is built once — plan, EMalloc
// layout, memory image sealed with AES-GCM (GMAC tags on the bypassed
// weight blocks), and one streaming secure-inference engine per
// dispatcher worker — and then serves requests admitted through a
// bounded queue (429 + Retry-After on overflow) and dynamically batched
// up to a configurable window/size. Every deployment is sealed under a
// fresh key derived from its tenant's sub-key of the gateway master key
// (seal.Key.DeriveSubKey) and a random label, so no two tenants, and no
// two deployments of one tenant, ever share keystream or nonces;
// hot-swapping a model builds the new deployment off the request path
// and swaps it atomically while the old workers finish their batches. A
// forward whose image fails verification answers 500 to its whole
// batch, never logits, and counts in the model's verify_failures.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"seal"
)

// ModelSpec is the client-supplied description of a model to host. The
// gateway builds everything else (weights, plan, sealed image) from it,
// deterministically but for the image key, so registering the same
// spec twice serves bit-identical logits from different ciphertext.
type ModelSpec struct {
	// Arch names a zoo architecture: vgg16, resnet18, resnet34.
	Arch string `json:"arch"`
	// Scale multiplies channel widths (0 means 1.0 — full width).
	Scale float64 `json:"scale,omitempty"`
	// Ratio overrides the SE encryption ratio; nil keeps the paper's 0.5.
	Ratio *float64 `json:"ratio,omitempty"`
	// Seed drives the deterministic weight initialization.
	Seed uint64 `json:"seed"`
	// PanelBytes overrides the streaming engines' panel budget (0 keeps
	// the engine default; negative values are rejected).
	PanelBytes int `json:"panel_bytes,omitempty"`
	// Int8 seals the deployment in the quantized int8 layout: 1-byte
	// weights with plaintext per-channel scales, ~4x less ciphertext on
	// the bus per forward, logits within quantization tolerance of the
	// float deployment.
	Int8 bool `json:"int8,omitempty"`
}

// RegisterInfo summarizes a successful (re-)registration.
type RegisterInfo struct {
	Model             string  `json:"model"`
	Gen               int64   `json:"gen"`
	Arch              string  `json:"arch"`
	Scale             float64 `json:"scale"`
	Ratio             float64 `json:"ratio"`
	Seed              uint64  `json:"seed"`
	Workers           int     `json:"workers"`
	InputLen          int     `json:"input_len"`
	Classes           int     `json:"classes"`
	WeightEncFraction float64 `json:"weight_enc_fraction"`
	ImageEncFraction  float64 `json:"image_enc_fraction"`
	Int8              bool    `json:"int8,omitempty"`
}

// ModelInfo is one row of the model listing.
type ModelInfo struct {
	Model string  `json:"model"`
	Gen   int64   `json:"gen"`
	Arch  string  `json:"arch"`
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
}

// ModelStats is the serving-counter snapshot for one hosted model.
// QueueLen, BusyEngines and IdleWorkers make saturation observable
// without a load driver: a persistently non-empty queue with every
// engine busy is the saturated regime; DrainRateQPS and RetryHintS
// expose what a rejected client would currently be told.
type ModelStats struct {
	Model        string  `json:"model"`
	Gen          int64   `json:"gen"`
	Requests     int64   `json:"requests"`
	Rejected     int64   `json:"rejected_429"`
	Batches      int64   `json:"batches"`
	Items        int64   `json:"batched_items"`
	AvgBatch     float64 `json:"avg_batch"`
	MaxBatch     int64   `json:"max_batch"`
	Swaps        int64   `json:"swaps"`
	Workers      int     `json:"workers"`
	QueueCap     int     `json:"queue_cap"`
	QueueLen     int     `json:"queue_len"`
	BusyEngines  int64   `json:"busy_engines"`
	IdleWorkers  int64   `json:"idle_workers"`
	DrainRateQPS float64 `json:"drain_rate_qps"`
	RetryHintS   int     `json:"retry_after_hint_s"`
	// VerifyFailures counts forwards that stopped because the sealed
	// image failed verification (seal.ErrTampered); each answered its
	// whole batch with 500.
	VerifyFailures int64 `json:"verify_failures"`
}

// Registry is the multi-tenant model table. All methods are safe for
// concurrent use; the expensive work of Register happens outside the
// table lock so registration never stalls the inference path.
type Registry struct {
	cfg    Config
	mu     sync.RWMutex
	models map[string]*hostedModel
	closed bool
}

// NewRegistry builds an empty registry. cfg must already have defaults
// applied (Server.New does this).
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, models: make(map[string]*hostedModel)}
}

func modelKey(tenant, name string) string { return tenant + "/" + name }

// Register hosts (or hot-swaps) tenant's model under the given name.
// The deployment — model build, SE plan, layout, image sealed under a
// fresh key derived from the tenant's sub-key, and one engine per
// worker — is constructed before any lock is taken; for an existing
// name the swap is atomic, and the previous deployment's workers exit
// once their in-flight batches finish.
func (r *Registry) Register(tenant, name string, spec ModelSpec) (*RegisterInfo, error) {
	if tenant == "" || name == "" {
		return nil, fmt.Errorf("%w: empty tenant or model name", ErrBadInput)
	}
	dep, info, err := r.build(tenant, spec)
	if err != nil {
		return nil, err
	}
	k := modelKey(tenant, name)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrShuttingDown
	}
	h, ok := r.models[k]
	if !ok {
		// Install before publishing, so a concurrent lookup never sees a
		// hosted model without a deployment.
		h = newHostedModel(tenant, name, r.cfg)
		if _, err := h.install(dep); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		r.models[k] = h
		r.mu.Unlock()
	} else {
		r.mu.Unlock()
		if _, err := h.install(dep); err != nil {
			return nil, err
		}
	}
	info.Model = k
	info.Gen = dep.gen
	return info, nil
}

// build constructs a deployment for spec, sealed under a fresh image
// key.
func (r *Registry) build(tenant string, spec ModelSpec) (*deployment, *RegisterInfo, error) {
	arch, err := seal.ArchByName(spec.Arch)
	if err != nil {
		return nil, nil, err
	}
	if spec.Scale < 0 {
		return nil, nil, fmt.Errorf("%w: scale %v", ErrBadInput, spec.Scale)
	}
	if spec.Scale != 0 && spec.Scale != 1 {
		arch = arch.Scale(spec.Scale, 0)
	}
	opts := seal.DefaultOptions()
	if spec.Ratio != nil {
		if *spec.Ratio < 0 || *spec.Ratio > 1 {
			return nil, nil, fmt.Errorf("%w: ratio %v", ErrBadInput, *spec.Ratio)
		}
		opts.Ratio = *spec.Ratio
	}
	if spec.PanelBytes < 0 {
		return nil, nil, fmt.Errorf("%w: panel_bytes %d", ErrBadInput, spec.PanelBytes)
	}
	key, err := r.imageKey(tenant)
	if err != nil {
		return nil, nil, err
	}
	popts := []seal.PrepareOption{
		seal.WithOptions(opts),
		seal.WithKey(key),
		seal.WithBatch(r.cfg.MaxBatch),
	}
	if spec.PanelBytes > 0 {
		popts = append(popts, seal.WithPanelBytes(spec.PanelBytes))
	}
	if spec.Int8 {
		popts = append(popts, seal.WithInt8())
	}
	prep, err := seal.Prepare(arch, spec.Seed, popts...)
	if err != nil {
		return nil, nil, err
	}
	dep := &deployment{
		spec:     spec,
		prep:     prep,
		slots:    make([]*engineSlot, r.cfg.Workers),
		inC:      arch.InC,
		inH:      arch.InH,
		inW:      arch.InW,
		inputLen: arch.InC * arch.InH * arch.InW,
		retired:  make(chan struct{}),
	}
	// Give every worker an engine slot and warm it with one forward at
	// full batch width: engine workspaces (im2col, panel staging, layer
	// outputs) and the slot's batch tensor are grow-only, so after this
	// no steady-state request allocates. The warm input is nonzero so the
	// int8 path's dynamic quantization scales stay well-defined. Warm-up
	// work is excluded from the serving stats.
	for w := range dep.slots {
		eng := prep.Engine()
		if w > 0 {
			if eng, err = prep.NewEngine(); err != nil {
				return nil, nil, err
			}
		}
		slot := newEngineSlot(eng, r.cfg.MaxBatch, dep.inputLen)
		dep.slots[w] = slot
		for i := range slot.xbuf {
			slot.xbuf[i] = float32(i%3) - 1
		}
		slot.x.Data = slot.xbuf
		slot.x.Shape = append(slot.x.Shape[:0], r.cfg.MaxBatch, dep.inC, dep.inH, dep.inW)
		if _, err := eng.Forward(&slot.x); err != nil {
			return nil, nil, err
		}
		eng.ResetStats()
	}
	info := &RegisterInfo{
		Arch:              spec.Arch,
		Scale:             effectiveScale(spec.Scale),
		Ratio:             opts.Ratio,
		Seed:              spec.Seed,
		Workers:           len(dep.slots),
		InputLen:          dep.inputLen,
		Classes:           classes(arch),
		WeightEncFraction: prep.Plan().WeightEncFraction(),
		ImageEncFraction:  prep.Layout().EncryptedFraction(),
		Int8:              prep.Int8(),
	}
	return dep, info, nil
}

// imageKey derives the key one deployment of tenant is sealed under:
// the tenant's sub-key of the master key, derived again under a random
// label. An image key seals one image only, because a block's nonce
// depends only on its address; a random label (not a counter) keeps
// that true across gateway restarts.
func (r *Registry) imageKey(tenant string) (seal.Key, error) {
	var label [16]byte
	if _, err := rand.Read(label[:]); err != nil {
		return seal.Key{}, fmt.Errorf("serve: image key label: %w", err)
	}
	return r.cfg.MasterKey.DeriveSubKey(tenant).DeriveSubKey(hex.EncodeToString(label[:])), nil
}

func effectiveScale(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// classes returns the width of the network's final weight layer — the
// logits length per sample.
func classes(a *seal.Arch) int {
	for i := len(a.Specs) - 1; i >= 0; i-- {
		if a.Specs[i].WeightCount() > 0 {
			return a.Specs[i].OutC
		}
	}
	return 0
}

// lookup resolves a hosted model; missing entries wrap
// seal.ErrModelNotFound.
func (r *Registry) lookup(tenant, name string) (*hostedModel, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.models[modelKey(tenant, name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", seal.ErrModelNotFound, tenant, name)
	}
	return h, nil
}

// Unregister removes a model and drains it completely before returning.
func (r *Registry) Unregister(tenant, name string) error {
	k := modelKey(tenant, name)
	r.mu.Lock()
	h, ok := r.models[k]
	delete(r.models, k)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s/%s", seal.ErrModelNotFound, tenant, name)
	}
	h.stop()
	return nil
}

// List returns the hosted models sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.models))
	for k, h := range r.models {
		dep := h.dep.Load()
		out = append(out, ModelInfo{
			Model: k,
			Gen:   dep.gen,
			Arch:  dep.spec.Arch,
			Scale: effectiveScale(dep.spec.Scale),
			Seed:  dep.spec.Seed,
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Stats snapshots the serving counters of every hosted model, sorted by
// name.
func (r *Registry) Stats() []ModelStats {
	r.mu.RLock()
	out := make([]ModelStats, 0, len(r.models))
	for k, h := range r.models {
		dep := h.dep.Load()
		st := ModelStats{
			Model:        k,
			Gen:          dep.gen,
			Requests:     h.stats.requests.Load(),
			Rejected:     h.stats.rejected.Load(),
			Batches:      h.stats.batches.Load(),
			Items:        h.stats.items.Load(),
			MaxBatch:     h.stats.maxBatch.Load(),
			Swaps:        h.stats.swaps.Load(),
			Workers:      len(dep.slots),
			QueueCap:     cap(h.queue),
			QueueLen:     len(h.queue),
			BusyEngines:  h.busy.Load(),
			IdleWorkers:  h.idle.Load(),
			DrainRateQPS: h.drainRate(),
			RetryHintS:   h.retryAfterHint(),

			VerifyFailures: h.stats.verifyFailures.Load(),
		}
		if st.Batches > 0 {
			st.AvgBatch = float64(st.Items) / float64(st.Batches)
		}
		out = append(out, st)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Close drains every hosted model and rejects all future work. It
// returns once no request is in flight and every dispatcher worker has
// exited.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	models := make([]*hostedModel, 0, len(r.models))
	for _, h := range r.models {
		models = append(models, h)
	}
	r.models = make(map[string]*hostedModel)
	r.mu.Unlock()
	for _, h := range models {
		h.stop()
	}
}
