// Package secure runs a planned model's forward pass directly from the
// sealed MemoryImage — the functional counterpart of the paper's claim
// that smart encryption keeps an accelerator near its plaintext
// roofline. Weights never exist as a whole decrypted tensor: each
// conv/FC layer's weight region is verified and decrypted panel by
// panel (a panel is the block of kernel rows one GEMM tile consumes, a
// whole number of the region's sealed kernel-row blocks, each opened
// with one AES-GCM call or GMAC-checked if it bypasses encryption), and
// each panel is decoded in full before the batch's GEMMs, fanned out
// over the shared worker pool, consume it. With one worker that loop
// runs no closures or goroutines and is allocation-free when warm. A
// panel that fails verification is never consumed: Forward fails closed
// with an error wrapping core.ErrTampered.
//
// One driver (Engine.stream) runs every weight layer, conv or FC, float
// or int8: an FC layer is the conv panel geometry with a 1×1 kernel and
// one output column, and the image format (panelFormat) only decides how
// a decrypted panel's bytes become GEMM weights and which GEMM kernel
// folds them in.
//
// Bit-identity with the plaintext nn forward is load-bearing: every
// float panel GEMM continues each output element's ascending-p float32
// accumulation chain from its stored value (see tensor.MatMulPanelAccWS),
// and int8 panels accumulate in exact int32, so streamed logits equal
// the nn forward (float or quantized) bit for bit at every pool width —
// the equivalence tests pin this.
//
// Only kernel weights live in the image (that is what EMalloc lays
// out); biases and BatchNorm parameters come from the plaintext model,
// matching the paper's threat model where SE protects the weight
// tensors on the memory bus.
package secure

import (
	"fmt"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/nn"
	"seal/internal/parallel"
	"seal/internal/tensor"
)

// DefaultPanelBytes is the target weight bytes decoded per panel when
// NewEngine is given no explicit size: large enough that the GEMM
// amortizes its dispatch, small enough that a panel of the deepest
// VGG/ResNet layers stays in cache.
const DefaultPanelBytes = 256 << 10

// Stats counts the engine's memory-side work since the last reset.
type Stats struct {
	Forwards       int64 // completed Forward calls
	Panels         int64 // weight panels staged
	BytesDecrypted int64 // ciphertext bytes verified and decrypted by AES-GCM
	BytesCopied    int64 // plaintext weight bytes that bypassed encryption (GMAC-verified, then copied)
}

// step is one stage of the streamed forward pass: exactly one of mod
// (plaintext passthrough: BN, activation, pooling, flatten), layer or
// blk is set.
type step struct {
	mod   nn.Module
	layer *layerStep
	blk   *blockStep
}

// layerStep streams one conv or FC layer from its weight region. Both
// kinds share one panel geometry: the region holds `blocks` line-aligned
// kernel-row blocks (a conv's input channels, an FC layer's input
// features), block c holding the outC·kk weights that multiply input c,
// and a panel is cpp consecutive blocks. An FC layer is the kk = 1 case
// with one output column per item.
type layerStep struct {
	e       *Engine
	name    string
	conv    *nn.Conv2D // nil for FC layers
	bias    *nn.Param  // nil when the layer has none
	region  *core.Region
	blocks  int       // kernel-row blocks: InC (conv) or In (FC)
	outC    int       // output channels (conv) or features (FC)
	kk      int       // kernel-matrix columns per block: KH·KW, 1 for FC
	perIn   int       // input floats per batch item
	ncols   int       // output columns per item: OutH·OutW, 1 for FC
	cpp     int       // blocks per panel
	panels  int       // ⌈blocks/cpp⌉
	qscales []float32 // int8: per-output weight scales from the qs header

	out *tensor.Tensor // engine-owned [N, OutC, OutH, OutW] or [N, Out]

	// per-call state, set by Engine.run before the pipeline starts
	x *tensor.Tensor
	n int
}

// blockStep streams a residual block: its convolutions run from the
// image, its BN/ReLU stages and the fused sum+ReLU run exactly as the
// plaintext block does.
type blockStep struct {
	b            *nn.ResidualBlock
	conv1, conv2 *layerStep
	shortcut     *layerStep // nil for identity shortcuts
	out          *tensor.Tensor
}

// Engine executes a model's inference forward pass with every conv/FC
// weight read through the encrypted MemoryImage. It owns all streaming
// workspaces, so a warm Forward at pool width 1 performs no heap
// allocations; returned tensors are owned by the engine (or, for
// passthrough stages, by the model's modules) and valid until the next
// Forward. An Engine is not safe for concurrent Forward calls, and —
// because it shares the model's BN/activation/pooling modules — must
// not run concurrently with the model's own Forward either.
type Engine struct {
	img        *core.MemoryImage
	model      *models.Model
	panelBytes int
	steps      []step
	format     panelFormat // float32 or int8 weights, fixed by the image layout

	// byteBuf stages one panel's decrypted region bytes; only decode
	// touches it.
	byteBuf       []byte
	maxPanelBytes int

	stats Stats
}

// NewEngine builds a streaming engine over an encrypted image and the
// model whose plan produced it. panelBytes bounds the bytes decrypted
// per panel (0 → DefaultPanelBytes); every panel is a whole number of
// kernel-row blocks, so it is always line-aligned. The model supplies
// network structure, biases and BN statistics — its conv/FC kernel
// weights are never read by the engine.
func NewEngine(img *core.MemoryImage, m *models.Model, panelBytes int) (*Engine, error) {
	if panelBytes <= 0 {
		panelBytes = DefaultPanelBytes
	}
	layers := img.Layout.Plan.Layers
	if len(m.WeightLayers) != len(layers) {
		return nil, fmt.Errorf("secure: model has %d weight layers, image plan %d", len(m.WeightLayers), len(layers))
	}
	e := &Engine{img: img, model: m, panelBytes: panelBytes, format: &floatFormat{}}
	elemBytes := 4
	if img.Layout.Int8 {
		e.format, elemBytes = &int8Format{}, 1
	}
	byLayer := make(map[nn.Named]*layerStep, len(layers))
	for i, lp := range layers {
		w := m.WeightLayers[i]
		if w.Name != lp.Name {
			return nil, fmt.Errorf("secure: weight layer %d is %s, plan has %s", i, w.Name, lp.Name)
		}
		r := img.Layout.Region("w:" + lp.Name)
		if r == nil {
			return nil, fmt.Errorf("secure: missing weights region for %s", lp.Name)
		}
		s, err := e.newLayerStep(w, r, elemBytes)
		if err != nil {
			return nil, err
		}
		if w.Conv != nil {
			byLayer[w.Conv] = s
		} else {
			byLayer[w.FC] = s
		}
	}
	take := func(l nn.Named) (*layerStep, error) {
		s := byLayer[l]
		if s == nil {
			return nil, fmt.Errorf("secure: layer %s has no weights region", l.LayerName())
		}
		delete(byLayer, l)
		return s, nil
	}
	for _, mod := range m.Net.Modules {
		var err error
		switch v := mod.(type) {
		case *nn.Conv2D, *nn.Linear:
			var s *layerStep
			s, err = take(v.(nn.Named))
			e.steps = append(e.steps, step{layer: s})
		case *nn.ResidualBlock:
			bs := &blockStep{b: v}
			if bs.conv1, err = take(v.Conv1); err == nil {
				bs.conv2, err = take(v.Conv2)
			}
			if err == nil && v.Shortcut != nil {
				bs.shortcut, err = take(v.Shortcut)
			}
			e.steps = append(e.steps, step{blk: bs})
		default:
			// BN, activations, pooling, flatten: plaintext passthrough —
			// they carry no EMalloc'd weights.
			e.steps = append(e.steps, step{mod: mod})
		}
		if err != nil {
			return nil, err
		}
	}
	if len(byLayer) != 0 {
		return nil, fmt.Errorf("secure: matched %d of %d weight layers in the network", len(layers)-len(byLayer), len(layers))
	}
	e.byteBuf = make([]byte, e.maxPanelBytes)
	e.format.alloc()
	return e, nil
}

// newLayerStep derives a layer's panel geometry, checks that the image
// region really holds this layer's weights (one block per input
// channel/feature, each wide enough for outC·kk weights), and folds its
// buffer needs into the engine and format maxima.
func (e *Engine) newLayerStep(w *models.WeightLayer, r *core.Region, elemBytes int) (*layerStep, error) {
	s := &layerStep{e: e, name: w.Name, region: r, kk: 1, ncols: 1}
	if c := w.Conv; c != nil {
		g := c.Geom
		s.conv, s.blocks, s.outC = c, g.InC, c.OutC
		s.kk, s.perIn, s.ncols = g.KH*g.KW, g.InC*g.InH*g.InW, g.OutH()*g.OutW()
		if c.UseBias {
			s.bias = c.Bias
		}
	} else {
		l := w.FC
		s.blocks, s.outC, s.perIn, s.bias = l.In, l.Out, l.In, l.Bias
	}
	if need := s.outC * s.kk * elemBytes; r.Blocks() != s.blocks || r.BlockBytes < uint64(need) {
		return nil, fmt.Errorf("secure: %s weights region has %d blocks of %d bytes, layer needs %d of %d",
			w.Name, r.Blocks(), r.BlockBytes, s.blocks, need)
	}
	s.cpp, s.panels = panelSplit(e.panelBytes, int(r.BlockBytes), s.blocks)
	if err := e.format.add(s); err != nil {
		return nil, err
	}
	e.maxPanelBytes = max(e.maxPanelBytes, s.cpp*int(r.BlockBytes))
	return s, nil
}

// panelSplit sizes panels for a region: as many whole kernel-row blocks
// as fit the byte budget, at least one.
func panelSplit(panelBytes, blockBytes, blocks int) (cpp, panels int) {
	cpp = panelBytes / blockBytes
	if cpp < 1 {
		cpp = 1
	}
	if cpp > blocks {
		cpp = blocks
	}
	return cpp, (blocks + cpp - 1) / cpp
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// Image returns the encrypted memory image the engine streams from.
func (e *Engine) Image() *core.MemoryImage { return e.img }

// Model returns the model supplying structure, biases and BN state.
func (e *Engine) Model() *models.Model { return e.model }

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// PanelBytes returns the configured panel byte budget.
func (e *Engine) PanelBytes() int { return e.panelBytes }

// Int8 reports whether the engine streams a quantized image.
func (e *Engine) Int8() bool {
	_, ok := e.format.(*int8Format)
	return ok
}

// Forward runs the streamed secure forward pass on a batch
// [N, C, H, W] and returns the logits, bit-identical to
// model.Forward(x, false). The returned tensor is valid until the next
// Forward. If a weight block or tag of the image fails verification,
// Forward stops at that panel and returns no logits and an error
// wrapping core.ErrTampered.
func (e *Engine) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	e.ensureBatch(x.Dim(0))
	for i := range e.steps {
		s := &e.steps[i]
		var err error
		switch {
		case s.layer != nil:
			x, err = e.run(s.layer, x)
		case s.blk != nil:
			x, err = e.runBlock(s.blk, x)
		default:
			x = s.mod.Forward(x, false)
		}
		if err != nil {
			return nil, err
		}
	}
	e.stats.Forwards++
	return x, nil
}

// ensureBatch grows the format's per-item pools to n items and its
// per-chunk pools to the fan-out width. Warm calls with a stable batch
// and pool width allocate nothing.
func (e *Engine) ensureBatch(n int) { e.format.ensureBatch(n, chunksFor(n)) }

// chunksFor is the item fan-out width of a batch of n: one chunk per
// worker, at most one per item. Per-chunk workspaces are sized by it.
func chunksFor(n int) int { return min(parallel.Workers(), n) }

// run streams one conv/FC layer over the batch x and returns its
// engine-owned output.
func (e *Engine) run(s *layerStep, x *tensor.Tensor) (*tensor.Tensor, error) {
	s.x, s.n = x, x.Dim(0)
	if s.conv != nil {
		g := s.conv.Geom
		ensure4(&s.out, s.n, s.outC, g.OutH(), g.OutW())
	} else {
		ensure2(&s.out, s.n, s.outC)
	}
	err := e.stream(s)
	s.x = nil // do not keep the caller's batch alive between forwards
	if err != nil {
		return nil, err
	}
	return s.out, nil
}

// stream is the panel pipeline every weight layer runs: prep stages each
// item's GEMM operand, decode(t) verifies, decrypts and converts panel t
// into the panel buffer, consume folds that panel into every item's
// output, and finish applies the epilogue. Only the item stages fan out;
// each fan-out returns before the next decode overwrites the panel it
// read. A panel that fails verification is never consumed: stream
// returns its error.
func (e *Engine) stream(s *layerStep) error {
	s.each(stagePrep, 0)
	for t := 0; t < s.panels; t++ {
		if err := s.decode(t); err != nil {
			return err
		}
		s.each(stageConsume, t)
	}
	s.each(stageFinish, 0)
	return nil
}

// stage names a per-item step of the panel pipeline.
type stage int

const (
	stagePrep    stage = iota // stage the item's GEMM operand
	stageConsume              // fold panel t into the item's output
	stageFinish               // write the item's float output, bias included
)

// each runs stage st over the batch in chunksFor(n) contiguous chunks,
// each owning the scratch of its chunk index. Only the multi-chunk
// branch builds a closure: a function value that may reach parallel.For
// escapes, and would allocate at one worker too.
func (s *layerStep) each(st stage, t int) {
	chunks := chunksFor(s.n)
	if chunks <= 1 {
		s.items(st, t, 0, s.n, 0)
		return
	}
	grain := (s.n + chunks - 1) / chunks
	parallel.For(s.n, grain, func(lo, hi int) { s.items(st, t, lo, hi, lo/grain) })
}

// items runs stage st over items [lo, hi) with chunk's scratch.
func (s *layerStep) items(st stage, t, lo, hi, chunk int) {
	f := s.e.format
	for i := lo; i < hi; i++ {
		switch st {
		case stagePrep:
			f.prep(s, i, chunk)
		case stageConsume:
			f.gemm(s, t, i, chunk)
		case stageFinish:
			f.finish(s, i, chunk)
		}
	}
}

// decode verifies and decrypts panel t's kernel-row blocks with one
// DecryptRangeInto and converts them into the panel buffer.
func (s *layerStep) decode(t int) error {
	c0 := t * s.cpp
	c1 := min(c0+s.cpp, s.blocks)
	buf, err := s.e.stagePanel(s.region, c0, c1)
	if err != nil {
		return err
	}
	s.e.format.convert(s, buf, c1-c0)
	return nil
}

// addBias adds the layer bias to item i's output after its last panel,
// as the plaintext layers do (one add per element, so the order across
// elements is immaterial).
func (s *layerStep) addBias(i int) {
	if s.bias == nil {
		return
	}
	for oc, b := range s.bias.W.Data[:s.outC] {
		row := s.out.Data[(i*s.outC+oc)*s.ncols : (i*s.outC+oc+1)*s.ncols]
		for j := range row {
			row[j] += b
		}
	}
}

// stagePanel verifies and decrypts blocks [c0, c1) of a weight region
// into the shared byte staging buffer and accounts the traffic split.
// NewEngine checked every region's geometry against its layer, so an
// error here means the image failed verification.
func (e *Engine) stagePanel(r *core.Region, c0, c1 int) ([]byte, error) {
	nb := uint64(c1-c0) * r.BlockBytes
	buf := e.byteBuf[:nb]
	enc, err := e.img.DecryptRangeInto(r, uint64(c0)*r.BlockBytes, buf)
	if err != nil {
		return nil, err
	}
	e.stats.BytesDecrypted += int64(enc)
	e.stats.BytesCopied += int64(nb) - int64(enc)
	e.stats.Panels++
	return buf, nil
}

// runBlock streams a residual block in the plaintext block's exact
// evaluation order: full main path, then shortcut, then the fused
// sum+ReLU into an engine-owned buffer.
func (e *Engine) runBlock(bs *blockStep, x *tensor.Tensor) (*tensor.Tensor, error) {
	b := bs.b
	main, err := e.run(bs.conv1, x)
	if err != nil {
		return nil, err
	}
	main = b.BN1.Forward(main, false)
	main = b.Relu1.Forward(main, false)
	if main, err = e.run(bs.conv2, main); err != nil {
		return nil, err
	}
	main = b.BN2.Forward(main, false)
	short := x
	if bs.shortcut != nil {
		if short, err = e.run(bs.shortcut, x); err != nil {
			return nil, err
		}
		short = b.ShortcutBN.Forward(short, false)
	}
	out := ensure4(&bs.out, main.Shape[0], main.Shape[1], main.Shape[2], main.Shape[3])
	for i := range out.Data {
		v := main.Data[i] + short.Data[i]
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out, nil
}

// ensure2/ensure4 are ensureShaped for engine-owned outputs, written
// without variadics so the warm path builds no shape slices. They are
// grow-only on capacity: once an engine has run at its widest batch,
// narrower batches re-slice the same storage instead of reallocating,
// so a serving engine that mixes batch sizes stays allocation-free.
// Safe because every engine-owned output is fully overwritten each
// forward (first-panel GEMMs run with acc=false, the int8 dequantize
// overwrites, runBlock assigns every element).
func ensure2(ws **tensor.Tensor, a, b int) *tensor.Tensor {
	t := *ws
	if t == nil || cap(t.Data) < a*b {
		t = tensor.New(a, b)
		*ws = t
		return t
	}
	t.Data = t.Data[:a*b]
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b)
	return t
}

func ensure4(ws **tensor.Tensor, a, b, c, d int) *tensor.Tensor {
	t := *ws
	if t == nil || cap(t.Data) < a*b*c*d {
		t = tensor.New(a, b, c, d)
		*ws = t
		return t
	}
	t.Data = t.Data[:a*b*c*d]
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b, c, d)
	return t
}

// aim2/aim3 re-point a reusable tensor header at a storage slice.
func aim2(t *tensor.Tensor, data []float32, a, b int) {
	t.Data = data
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b)
}

func aim3(t *tensor.Tensor, data []float32, a, b, c int) {
	t.Data = data
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b, c)
}
