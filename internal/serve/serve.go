package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"seal"
	"seal/internal/parallel"
)

// Config tunes the gateway. The zero value is usable: New fills in the
// defaults below.
type Config struct {
	// MasterKey roots the per-tenant key hierarchy: each image of
	// tenant t is sealed under MasterKey.DeriveSubKey(t), derived again
	// under a random label of its own.
	MasterKey seal.Key
	// QueueDepth bounds each model's admission queue; a full queue
	// answers 429 with Retry-After.
	QueueDepth int
	// MaxBatch caps dynamic batch size.
	MaxBatch int
	// BatchWindow is how long a dispatcher waits to widen a non-full
	// batch after its first request — armed only when no other engine
	// is idle (see hostedModel.collect).
	BatchWindow time.Duration
	// Workers is the number of dispatcher workers per model, each with
	// its own streaming engine (so also the concurrent batches); 0 sizes
	// it from the shared worker pool.
	Workers int
	// RetryAfter is the fallback 429 backoff hint, used until the first
	// batch completes; after that the hint is derived from the live
	// queue depth and the measured drain rate.
	RetryAfter time.Duration
}

// Defaults for the zero Config.
const (
	DefaultQueueDepth  = 64
	DefaultMaxBatch    = 8
	DefaultBatchWindow = 2 * time.Millisecond
	DefaultRetryAfter  = time.Second
)

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.Workers <= 0 {
		c.Workers = parallel.Workers()
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// ContentTypeF32 is the raw little-endian float32 encoding for /infer:
// the request body is exactly inputLen·4 bytes of packed float32
// sample values, and the response body is the packed float32 logits
// row, with the serving metadata in X-Seal-Gen / X-Seal-Batch headers.
// It bypasses encoding/json (and its float64 round-trip) entirely —
// the hot path for load drivers and latency-sensitive clients.
// application/octet-stream is accepted as a synonym on requests.
const ContentTypeF32 = "application/x-seal-f32"

// isRawF32 reports whether a request Content-Type selects the raw
// float32 body encoding (parameters after ';' are ignored).
func isRawF32(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)
	return ct == ContentTypeF32 || ct == "application/octet-stream"
}

// Server is the HTTP face of the gateway:
//
//	GET    /healthz
//	GET    /v1/models
//	GET    /v1/stats
//	PUT    /v1/tenants/{tenant}/models/{model}        register / hot-swap
//	DELETE /v1/tenants/{tenant}/models/{model}        unregister (drains)
//	POST   /v1/tenants/{tenant}/models/{model}/infer  one sample per request
//
// Inference requests carry one sample each; the gateway batches
// concurrent requests dynamically before a dispatcher worker runs them
// on its engine, so client code stays trivially simple while the zero-alloc
// eval path gets wide batches.
type Server struct {
	cfg Config
	reg *Registry
	mux *http.ServeMux
}

// New builds a gateway server with an empty registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reg: NewRegistry(cfg), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/models", s.handleList)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}/models/{model}", s.handleRegister)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/models/{model}", s.handleUnregister)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/models/{model}/infer", s.handleInfer)
	return s
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model table (the bench driver and tests use it
// directly).
func (s *Server) Registry() *Registry { return s.reg }

// Close drains every model and rejects further work. Callers doing an
// HTTP-level graceful shutdown should stop the listener first
// (http.Server.Shutdown), then Close the gateway.
func (s *Server) Close() { s.reg.Close() }

// InferRequest is the JSON inference body: exactly one of Input (a JSON
// number array) or Raw (base64 little-endian float32 bytes) must hold
// the sample. Numbers survive the JSON round-trip bit-exactly (every
// float32 is an exact float64), so either form supports the gateway's
// bit-identity guarantee. Clients that want JSON out of the loop
// entirely should POST with Content-Type ContentTypeF32 instead.
type InferRequest struct {
	Input []float64 `json:"input,omitempty"`
	Raw   []byte    `json:"raw,omitempty"`
}

func (q *InferRequest) sample() ([]float32, error) {
	switch {
	case len(q.Raw) > 0 && len(q.Input) > 0:
		return nil, fmt.Errorf("%w: both input and raw set", ErrBadInput)
	case len(q.Raw) > 0:
		if len(q.Raw)%4 != 0 {
			return nil, fmt.Errorf("%w: raw length %d not a multiple of 4", ErrBadInput, len(q.Raw))
		}
		out := make([]float32, len(q.Raw)/4)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(q.Raw[i*4:]))
		}
		return out, nil
	case len(q.Input) > 0:
		out := make([]float32, len(q.Input))
		for i, v := range q.Input {
			out[i] = float32(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: empty input", ErrBadInput)
	}
}

// InferResponse returns one sample's logits. Raw mirrors the request
// encoding: raw in, raw out; JSON numbers otherwise. Batch reports how
// many requests shared the forward pass, Gen which deployment served
// it.
type InferResponse struct {
	Model  string    `json:"model"`
	Gen    int64     `json:"gen"`
	Batch  int       `json:"batch"`
	Logits []float64 `json:"logits,omitempty"`
	Raw    []byte    `json:"raw,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Stats())
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec ModelSpec
	if err := decodeJSON(w, r, &spec); err != nil {
		s.writeError(w, err, nil)
		return
	}
	info, err := s.reg.Register(r.PathValue("tenant"), r.PathValue("model"), spec)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Unregister(r.PathValue("tenant"), r.PathValue("model")); err != nil {
		s.writeError(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "unregistered"})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	tenant, name := r.PathValue("tenant"), r.PathValue("model")
	h, err := s.reg.lookup(tenant, name)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	if isRawF32(r.Header.Get("Content-Type")) {
		s.handleInferF32(w, r, h)
		return
	}
	var req InferRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err, h)
		return
	}
	input, err := req.sample()
	if err != nil {
		s.writeError(w, err, h)
		return
	}
	p, err := h.admit(input)
	if err != nil {
		s.writeError(w, err, h)
		return
	}
	select {
	case res := <-p.resp:
		if res.err != nil {
			s.writeError(w, res.err, h)
			h.putPending(p)
			return
		}
		resp := InferResponse{Model: modelKey(tenant, name), Gen: res.gen, Batch: res.batch}
		if len(req.Raw) > 0 {
			resp.Raw = make([]byte, len(res.logits)*4)
			for i, v := range res.logits {
				binary.LittleEndian.PutUint32(resp.Raw[i*4:], math.Float32bits(v))
			}
		} else {
			resp.Logits = make([]float64, len(res.logits))
			for i, v := range res.logits {
				resp.Logits[i] = float64(v)
			}
		}
		h.putPending(p)
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// Client gone; the batch still completes and its result lands in
		// the buffered response channel. The pending is abandoned (not
		// recycled) — reusing it could cross-wire a stale result.
	}
}

// handleInferF32 is the raw little-endian float32 request path: the
// body is read straight into pooled buffers, decoded without
// encoding/json, and the logits row is written back as packed float32
// bytes — zero heap allocations end to end once the model's request
// pool is warm (the HTTP transport itself notwithstanding).
func (s *Server) handleInferF32(w http.ResponseWriter, r *http.Request, h *hostedModel) {
	want := h.inputLen()
	need := want * 4
	p := h.getPending()
	if cap(p.raw) < need {
		p.raw = make([]byte, need)
	}
	p.raw = p.raw[:need]
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if _, err := io.ReadFull(body, p.raw); err != nil {
		h.putPending(p)
		s.writeError(w, fmt.Errorf("%w: raw body: %v (want exactly %d bytes)", ErrBadInput, err, need), h)
		return
	}
	var extra [1]byte
	if n, _ := body.Read(extra[:]); n > 0 {
		h.putPending(p)
		s.writeError(w, fmt.Errorf("%w: raw body longer than %d bytes", ErrBadInput, need), h)
		return
	}
	if cap(p.input) < want {
		p.input = make([]float32, want)
	}
	p.input = p.input[:want]
	for i := range p.input {
		p.input[i] = math.Float32frombits(binary.LittleEndian.Uint32(p.raw[i*4:]))
	}
	if err := h.enqueue(p); err != nil {
		h.putPending(p)
		s.writeError(w, err, h)
		return
	}
	select {
	case res := <-p.resp:
		if res.err != nil {
			s.writeError(w, res.err, h)
			h.putPending(p)
			return
		}
		out := len(res.logits) * 4
		if cap(p.raw) < out {
			p.raw = make([]byte, out)
		}
		buf := p.raw[:out]
		for i, v := range res.logits {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		hd := w.Header()
		hd.Set("Content-Type", ContentTypeF32)
		hd.Set("X-Seal-Model", modelKey(h.tenant, h.name))
		hd.Set("X-Seal-Gen", strconv.FormatInt(res.gen, 10))
		hd.Set("X-Seal-Batch", strconv.Itoa(res.batch))
		hd.Set("Content-Length", strconv.Itoa(out))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf)
		h.putPending(p)
	case <-r.Context().Done():
		// Abandoned mid-wait: the pending cannot be recycled.
	}
}

// statusFor maps the façade's sentinel errors (and the gateway's own)
// to HTTP statuses — errors.Is, never string matching.
func statusFor(err error) int {
	switch {
	case errors.Is(err, seal.ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, seal.ErrUnknownArch), errors.Is(err, seal.ErrBadKey), errors.Is(err, ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError maps err to a status; for 429 the Retry-After hint is
// derived from the model's live queue depth and measured drain rate
// when the hosted model is known (h may be nil on lookup failures).
func (s *Server) writeError(w http.ResponseWriter, err error, h *hostedModel) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		if h != nil {
			secs = h.retryAfterHint()
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds request bodies; a full-width CIFAR sample is
// ~12 KiB of floats, so 32 MiB leaves room for future large inputs.
const maxBodyBytes = 32 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return nil
}
