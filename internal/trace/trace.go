// Package trace turns workloads — dense matrix multiplication and the
// layers of a CNN inference — into per-SM instruction/memory traces for
// the GPU simulator. The execution model mirrors how GPU libraries run
// convolutions (im2col expansion followed by a tiled GEMM), because the
// DRAM traffic of that strategy, not the arithmetic minimum, is what the
// paper's GPGPU-Sim runs exercise and what makes CONV and POOL layers
// bandwidth-sensitive enough for memory encryption to hurt (Figures
// 5-8).
package trace

import (
	"fmt"

	"seal/internal/core"
	"seal/internal/gpu"
	"seal/internal/models"
)

// Params tunes the execution model.
type Params struct {
	NumSMs    int
	LineBytes int
	// Tile is the square shared-memory GEMM tile edge (elements). It sets
	// the data reuse factor and therefore the DRAM traffic of GEMM-based
	// layers: operands are re-read matrixDim/Tile times.
	Tile int
	// ComputeOverhead inflates warp arithmetic instructions beyond the
	// raw FMA count (address math, shared-memory traffic, control flow).
	// GPU GEMM kernels retire ≈2 instructions per FMA; this knob
	// calibrates the compute/bandwidth balance to the GTX480 profile.
	ComputeOverhead float64
	// Batch is the inference batch size (images per run).
	Batch int
	// ElemBytes is the element size (4 for float32).
	ElemBytes int
}

// DefaultParams matches the GTX480 simulator configuration. The 32-wide
// GEMM tile matches the 16×16 thread-block SGEMM kernels of the Fermi era;
// operand re-read factors (and hence DRAM pressure) follow from it.
func DefaultParams() Params {
	return Params{NumSMs: 15, LineBytes: 64, Tile: 16, ComputeOverhead: 0.3, Batch: 1, ElemBytes: 4}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.NumSMs <= 0 || p.LineBytes <= 0 || p.Tile <= 0 || p.Batch <= 0 || p.ElemBytes <= 0 {
		return fmt.Errorf("trace: invalid params %+v", p)
	}
	if p.ComputeOverhead < 0 {
		return fmt.Errorf("trace: negative compute overhead")
	}
	return nil
}

// Emitter accumulates per-SM streams. Work units (GEMM tiles, channel
// copies) are assigned to SMs round-robin; within an SM, ops are
// sequential. Fractional compute is accumulated exactly and attached to
// the next memory op.
type Emitter struct {
	p       Params
	streams []gpu.Stream
	pending []float64
	sm      int
}

// NewEmitter constructs an emitter for p.NumSMs streams.
func NewEmitter(p Params) *Emitter {
	return &Emitter{p: p, streams: make([]gpu.Stream, p.NumSMs), pending: make([]float64, p.NumSMs)}
}

// NextSM advances the work-unit round-robin.
func (e *Emitter) NextSM() { e.sm = (e.sm + 1) % e.p.NumSMs }

// Compute adds warp instructions of arithmetic on the current SM.
func (e *Emitter) Compute(warpInsts float64) {
	e.pending[e.sm] += warpInsts * (1 + e.p.ComputeOverhead)
}

func (e *Emitter) flushInto(op gpu.Op) {
	whole := int(e.pending[e.sm])
	e.pending[e.sm] -= float64(whole)
	op.Compute = whole
	e.streams[e.sm] = append(e.streams[e.sm], op)
}

// Read emits one line read at addr on the current SM.
func (e *Emitter) Read(addr uint64) { e.flushInto(gpu.Op{Addr: addr}) }

// Write emits one line write at addr on the current SM.
func (e *Emitter) Write(addr uint64) { e.flushInto(gpu.Op{Addr: addr, Write: true}) }

// ReadRange emits line-granular reads covering [base, base+bytes).
func (e *Emitter) ReadRange(base uint64, bytes int) {
	lb := uint64(e.p.LineBytes)
	first := base / lb * lb
	for a := first; a < base+uint64(bytes); a += lb {
		e.Read(a)
	}
}

// WriteRange emits line-granular writes covering [base, base+bytes).
func (e *Emitter) WriteRange(base uint64, bytes int) {
	lb := uint64(e.p.LineBytes)
	first := base / lb * lb
	for a := first; a < base+uint64(bytes); a += lb {
		e.Write(a)
	}
}

// Streams finalizes the trace, flushing leftover compute as tail ops.
func (e *Emitter) Streams() []gpu.Stream {
	for i := range e.streams {
		if e.pending[i] >= 1 {
			e.streams[i] = append(e.streams[i], gpu.Op{Compute: int(e.pending[i]), NoMem: true})
			e.pending[i] = 0
		}
	}
	return e.streams
}

// Matmul generates the trace of an n×n float32 matrix multiplication
// C = A×B with shared-memory tiling — the paper's Figure 1 workload
// ("matrix multiplication computation that is the most common operation
// in DL algorithms"). a, b and c are the operand regions.
func Matmul(p Params, n int, a, b, c *core.Region) ([]gpu.Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n%p.Tile != 0 {
		return nil, fmt.Errorf("trace: matmul size %d not a multiple of tile %d", n, p.Tile)
	}
	e := NewEmitter(p)
	t := p.Tile
	eb := uint64(p.ElemBytes)
	rowBytes := uint64(n) * eb
	tiles := n / t
	// warp FMAs per k-step of one tile
	fmas := float64(t*t*t) / 32.0
	for ti := 0; ti < tiles; ti++ {
		for tj := 0; tj < tiles; tj++ {
			for k := 0; k < tiles; k++ {
				// load A[ti, k] tile: t rows of t elements
				for r := 0; r < t; r++ {
					e.ReadRange(a.Base+uint64(ti*t+r)*rowBytes+uint64(k*t)*eb, t*p.ElemBytes)
				}
				// load B[k, tj] tile
				for r := 0; r < t; r++ {
					e.ReadRange(b.Base+uint64(k*t+r)*rowBytes+uint64(tj*t)*eb, t*p.ElemBytes)
				}
				e.Compute(fmas)
			}
			// store C[ti, tj] tile
			for r := 0; r < t; r++ {
				e.WriteRange(c.Base+uint64(ti*t+r)*rowBytes+uint64(tj*t)*eb, t*p.ElemBytes)
			}
			e.NextSM()
		}
	}
	return e.Streams(), nil
}

// MatmulRegions allocates the three operand regions of an n×n matmul in
// a fresh address space, fully encrypted when enc is true (the Figure 1
// experiments encrypt everything or nothing).
func MatmulRegions(n int, p Params, enc bool) (a, b, c *core.Region, end uint64) {
	space := core.NewAddressSpace(0)
	bytes := uint64(n) * uint64(n) * uint64(p.ElemBytes)
	allocFn := space.Malloc
	if enc {
		allocFn = space.EMalloc
	}
	a = allocFn("A", bytes)
	b = allocFn("B", bytes)
	c = allocFn("C", bytes)
	return a, b, c, space.End()
}

// LayerRegions bundles the address-space regions one layer touches.
type LayerRegions struct {
	In   *core.Region // input feature map (channel-major)
	Out  *core.Region // output feature map
	Cols *core.Region // im2col scratch (CONV only)
	W    *core.Region // weights (kernel-row-major)
}

// Conv generates the trace of one CONV layer executed as im2col + tiled
// GEMM.
//
// Phase 1 (im2col): each input channel is read once and expanded to its
// K²-row block of the cols matrix (written once).
// Phase 2 (GEMM): kernel matrix [OutC, InC·K²] × cols [InC·K², B·OH·OW].
// With tile edge T, the cols matrix is re-read ⌈OutC/T⌉ times and the
// kernel matrix ⌈B·OH·OW/T⌉ times; the output map is written once.
func Conv(p Params, spec models.LayerSpec, r LayerRegions) ([]gpu.Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind != models.KindConv {
		return nil, fmt.Errorf("trace: Conv called on %v layer %s", spec.Kind, spec.Name)
	}
	if r.In == nil || r.Out == nil || r.Cols == nil || r.W == nil {
		return nil, fmt.Errorf("trace: Conv %s missing regions", spec.Name)
	}
	e := NewEmitter(p)
	eb := p.ElemBytes
	kk := spec.K * spec.K
	ohw := spec.OutH() * spec.OutW() * p.Batch
	inHW := spec.InH * spec.InW * p.Batch

	// Phase 1: im2col, one input channel per work unit.
	for c := 0; c < spec.InC; c++ {
		e.ReadRange(r.In.Base+uint64(c)*r.In.BlockBytes, inHW*eb)
		e.WriteRange(r.Cols.Base+uint64(c)*r.Cols.BlockBytes, kk*ohw*eb)
		// ≈1 instruction per expanded element / 32 lanes
		e.Compute(float64(kk*ohw) / 32.0)
		e.NextSM()
	}

	// Phase 2: tiled GEMM over [OutC, ohw] output tiles.
	t := p.Tile
	kDim := spec.InC * kk
	for ti := 0; ti < spec.OutC; ti += t {
		tm := min(t, spec.OutC-ti)
		for tj := 0; tj < ohw; tj += t {
			tn := min(t, ohw-tj)
			for k := 0; k < kDim; k += t {
				tk := min(t, kDim-k)
				// kernel tile: rows of the kernel matrix live in the
				// weights region kernel-row-major: element (o, c, kpos) at
				// block c, offset (o·K²+kpos)·eb.
				for o := ti; o < ti+tm; o++ {
					cStart, kpos := (k)/kk, (k)%kk
					remaining := tk
					c := cStart
					off := kpos
					for remaining > 0 {
						span := min(remaining, kk-off)
						addr := r.W.Base + uint64(c)*r.W.BlockBytes + uint64(o*kk+off)*uint64(eb)
						e.ReadRange(addr, span*eb)
						remaining -= span
						c++
						off = 0
					}
				}
				// cols tile: row k+i of cols is (channel (k+i)/K², row
				// (k+i)%K² within block), columns tj..tj+tn.
				for i := 0; i < tk; i++ {
					c := (k + i) / kk
					rowIn := (k + i) % kk
					addr := r.Cols.Base + uint64(c)*r.Cols.BlockBytes + uint64(rowIn*ohw+tj)*uint64(eb)
					e.ReadRange(addr, tn*eb)
				}
				e.Compute(float64(tm*tn*tk) / 32.0)
			}
			// output tile: channel-major ofmap
			for o := ti; o < ti+tm; o++ {
				addr := r.Out.Base + uint64(o)*r.Out.BlockBytes + uint64(tj)*uint64(eb)
				e.WriteRange(addr, tn*eb)
			}
			e.NextSM()
		}
	}
	return e.Streams(), nil
}

// Pool generates the trace of a POOL layer (max or average): the input
// map is read once, the output written once, with ≈K² operations per
// output element. Pooling has almost no arithmetic per byte, which is
// why Figure 6 shows deeper encryption losses for POOL than CONV.
func Pool(p Params, spec models.LayerSpec, r LayerRegions) ([]gpu.Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind != models.KindPool && spec.Kind != models.KindGlobalAvgPool {
		return nil, fmt.Errorf("trace: Pool called on %v layer %s", spec.Kind, spec.Name)
	}
	if r.In == nil || r.Out == nil {
		return nil, fmt.Errorf("trace: Pool %s missing regions", spec.Name)
	}
	e := NewEmitter(p)
	eb := p.ElemBytes
	inHW := spec.InH * spec.InW * p.Batch
	outHW := spec.OutH() * spec.OutW() * p.Batch
	for c := 0; c < spec.InC; c++ {
		e.ReadRange(r.In.Base+uint64(c)*r.In.BlockBytes, inHW*eb)
		e.WriteRange(r.Out.Base+uint64(c)*r.Out.BlockBytes, outHW*eb)
		e.Compute(float64(outHW*spec.K*spec.K) / 32.0)
		e.NextSM()
	}
	return e.Streams(), nil
}

// FC generates the trace of a fully-connected layer: the weight matrix
// streams through once (it has no reuse at batch sizes ≪ Tile), the
// input activations are read per output tile, the output written once.
func FC(p Params, spec models.LayerSpec, r LayerRegions) ([]gpu.Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind != models.KindFC {
		return nil, fmt.Errorf("trace: FC called on %v layer %s", spec.Kind, spec.Name)
	}
	if r.In == nil || r.Out == nil || r.W == nil {
		return nil, fmt.Errorf("trace: FC %s missing regions", spec.Name)
	}
	e := NewEmitter(p)
	eb := p.ElemBytes
	t := p.Tile
	// The input activation vector is tiny (InC × Batch elements); it
	// streams in once and stays resident in shared memory/L2. Read it by
	// region blocks so conv-produced channel-major maps address correctly.
	if r.In.BlockBytes > 0 {
		for b := 0; b < r.In.Blocks(); b++ {
			e.ReadRange(r.In.Base+uint64(b)*r.In.BlockBytes, int(r.In.BlockBytes))
			e.NextSM()
		}
	} else {
		e.ReadRange(r.In.Base, int(r.In.Size))
	}
	for o := 0; o < spec.OutC; o += t {
		tm := min(t, spec.OutC-o)
		// weights for outputs [o, o+tm): kernel-row-major — column i of
		// the weight matrix lives in block i at offset out·eb.
		for i := 0; i < spec.InC; i++ {
			addr := r.W.Base + uint64(i)*r.W.BlockBytes + uint64(o)*uint64(eb)
			e.ReadRange(addr, tm*eb)
		}
		e.Compute(float64(tm*spec.InC*p.Batch) / 32.0)
		for i := o; i < o+tm; i++ {
			e.WriteRange(r.Out.Base+uint64(i)*r.Out.BlockBytes, p.Batch*eb)
		}
		e.NextSM()
	}
	return e.Streams(), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
