package tensor

import (
	"fmt"

	"seal/internal/parallel"
)

// This file is the int8 quantized-inference substrate: per-output-channel
// symmetric weight quantization, per-item symmetric activation
// quantization, a saturating int8 GEMM with int32 accumulators, and the
// dequantization kernels that turn accumulators back into float32
// activations. The design leans on two facts:
//
//   - int32 accumulation of int8×int8 products is exact, so the sum is
//     independent of association order. Panel-split, row-sharded and
//     serial executions are bit-identical by arithmetic, not by loop
//     discipline as in the float kernels.
//   - adding a zero product never changes an exact integer sum, so the
//     kernel is free to enumerate only the nonzero activation lanes.
//     Post-ReLU feature maps are roughly half exact zeros; the GEMM runs
//     with activations on the left (row-major, contiguous) and weights on
//     the right — the transpose of the float conv kernel's orientation —
//     precisely so the sparse operand is the streamed one.
//
// The inner kernel is a biased-SWAR dual-lane multiply, documented at
// int8Rows below: one 64-bit integer multiply retires two int8 products,
// which is what lets the int8 path beat the float32 kernels even on
// dense inputs.
type Int8Mat struct {
	Rows, Cols int
	Data       []int8 // row-major
}

// NewInt8Mat returns a zeroed int8 matrix.
func NewInt8Mat(rows, cols int) *Int8Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: non-positive Int8Mat dims %d×%d", rows, cols))
	}
	return &Int8Mat{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}
}

// QMaxInt8 is the symmetric quantization range: values map to
// [-QMaxInt8, QMaxInt8]. -128 is never produced, so negation of any
// quantized value stays in range.
const QMaxInt8 = 127

// maxPackedDepth bounds one packed-accumulation run: the dual-lane
// int64 accumulator holds each 32-bit lane as 2³⁰ + Σ a·(b+128), and
// every partial sum must stay strictly inside (0, 2³¹) for the lanes
// to separate exactly. |a·(b+128)| ≤ 127·255 = 32385, so runs up to
// ⌊(2³⁰−1)/32385⌋ = 33155 lanes are safe.
const maxPackedDepth = 32768

// MaxInt8PanelDepth is the deepest weight panel (inner-dimension lanes)
// the packed GEMM accepts in one call; streaming callers clamp their
// panel splits to it.
const MaxInt8PanelDepth = maxPackedDepth

// laneBias is the per-32-bit-lane offset that keeps both SWAR lanes
// positive; accBias seeds a packed accumulator with it in each lane.
const (
	laneBias   = int64(1) << 30
	accBias    = laneBias | laneBias<<32
	laneBias32 = int32(1) << 30
)

// QuantScale returns the symmetric scale mapping [-maxAbs, maxAbs] onto
// the int8 range: maxAbs/127, or 1 for an all-zero tensor (any scale
// reproduces zeros exactly; 1 keeps dequantization well-defined).
func QuantScale(maxAbs float32) float32 {
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / QMaxInt8
}

// quantizeOne maps v to the saturating int8 grid of the given inverse
// scale: round-half-away-from-zero, clamped to ±127. The clamp happens
// in the float domain — r can exceed the int32 range for caller-chosen
// scales far below max|v|/127, where a convert-then-clamp would hit
// Go's implementation-defined out-of-range conversion.
func quantizeOne(v, invScale float32) int8 {
	r := v * invScale
	if r >= QMaxInt8 {
		return QMaxInt8
	}
	if r <= -QMaxInt8 {
		return -QMaxInt8
	}
	if r >= 0 {
		return int8(int32(r + 0.5))
	}
	return int8(int32(r - 0.5))
}

// QuantizeRowsInto quantizes the rank-2 tensor w row by row with
// per-row symmetric scales: scales[i] = max|w[i,:]|/127 and
// q[i][j] = round(w[i][j]/scales[i]) saturated to ±127. With w a kernel
// matrix (rows = output channels) this is the per-output-channel weight
// quantization of the int8 inference path. q and scales must be sized
// [rows, cols] and [rows].
func QuantizeRowsInto(q *Int8Mat, scales []float32, w *Tensor) {
	if len(w.Shape) != 2 {
		panic("tensor: QuantizeRowsInto requires a rank-2 tensor")
	}
	rows, cols := w.Shape[0], w.Shape[1]
	if q.Rows != rows || q.Cols != cols || len(q.Data) < rows*cols {
		panic(fmt.Sprintf("tensor: QuantizeRowsInto dst %d×%d for src %d×%d", q.Rows, q.Cols, rows, cols))
	}
	if len(scales) < rows {
		panic(fmt.Sprintf("tensor: QuantizeRowsInto scales len %d, need %d", len(scales), rows))
	}
	for i := 0; i < rows; i++ {
		src := w.Data[i*cols : (i+1)*cols]
		s := QuantScale(MaxAbsSlice(src))
		scales[i] = s
		inv := 1 / s
		dst := q.Data[i*cols : (i+1)*cols]
		for j, v := range src {
			dst[j] = quantizeOne(v, inv)
		}
	}
}

// QuantizeSliceInto quantizes src onto the int8 grid of the given scale
// (QuantScale of the data's max-abs, or any caller-chosen symmetric
// scale). Values beyond ±127·scale saturate.
func QuantizeSliceInto(dst []int8, src []float32, scale float32) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: QuantizeSliceInto dst len %d < src len %d", len(dst), len(src)))
	}
	inv := 1 / scale
	for i, v := range src {
		dst[i] = quantizeOne(v, inv)
	}
}

// MaxAbsSlice returns the maximum absolute value of src.
func MaxAbsSlice(src []float32) float32 {
	var m float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Im2ColTransInt8Into expands the quantized image img (row-major
// [C, H, W] int8 values) into the TRANSPOSE of the float Im2Col matrix:
// dst[j][c*KH*KW + kh*KW + kw] for output position j. Padding positions
// are zero. This row-major activation layout is what the int8 GEMM
// consumes: each output pixel's receptive field is one contiguous row,
// so the nonzero-lane scan streams it sequentially.
func Im2ColTransInt8Into(dst *Int8Mat, img []int8, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	ncols := oh * ow
	kk := g.InC * g.KH * g.KW
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2ColTransInt8Into image len %d does not match geometry %+v", len(img), g))
	}
	if dst.Rows != ncols || dst.Cols != kk || len(dst.Data) < ncols*kk {
		panic(fmt.Sprintf("tensor: Im2ColTransInt8Into output %d×%d, want %d×%d", dst.Rows, dst.Cols, ncols, kk))
	}
	d := dst.Data[:ncols*kk]
	for i := range d {
		d[i] = 0
	}
	// Row j = (oy, ox) gathers the window anchored at that output
	// position; the (c, kh) loops copy contiguous input spans clipped to
	// the valid kw range.
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*g.Stride - g.Pad
			row := d[(oy*ow+ox)*kk : (oy*ow+ox+1)*kk]
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for kh := 0; kh < g.KH; kh++ {
					iy := iy0 + kh
					if iy < 0 || iy >= g.InH {
						continue
					}
					kw0, kw1 := 0, g.KW
					if ix0 < 0 {
						kw0 = -ix0
					}
					if ix0+g.KW > g.InW {
						kw1 = g.InW - ix0
					}
					if kw1 <= kw0 {
						continue
					}
					src := img[chanBase+iy*g.InW+ix0+kw0 : chanBase+iy*g.InW+ix0+kw1]
					copy(row[(c*g.KH+kh)*g.KW+kw0:(c*g.KH+kh)*g.KW+kw1], src)
				}
			}
		}
	}
}

// Int8GEMMWS is the caller-owned scratch of the int8 GEMM: the
// compressed nonzero-lane lists of the activation rows. Zero-alloc callers keep one per worker
// sized with NewInt8GEMMWS and pass it to every call; a nil workspace
// allocates internally.
type Int8GEMMWS struct {
	nz     []int32 // per-row nonzero lanes, packed lane*4<<8 | uint8(value)
	rowPtr []int32 // m+1 offsets into nz
	rowSum []int32 // per-row Σ of activation values over the panel lanes
	panel  []int64 // packed dual-lane weight words (PackedBLen)
}

// NewInt8GEMMWS sizes a workspace for activation matrices up to [m, k]
// (the nonzero list is worst-case dense). n sizes the panel buffer,
// which the prepacked GEMM does not use; pass 0.
func NewInt8GEMMWS(m, k, n int) *Int8GEMMWS {
	kp := k
	if kp > maxPackedDepth {
		kp = maxPackedDepth
	}
	return &Int8GEMMWS{
		nz:     make([]int32, m*k),
		rowPtr: make([]int32, m+1),
		rowSum: make([]int32, m),
		panel:  make([]int64, PackedBLen(n, kp)),
	}
}

func (ws *Int8GEMMWS) ensure(m, kp, n int) {
	if cap(ws.nz) < m*kp {
		ws.nz = make([]int32, m*kp)
	}
	ws.nz = ws.nz[:cap(ws.nz)]
	if cap(ws.rowPtr) < m+1 {
		ws.rowPtr = make([]int32, m+1)
	}
	ws.rowPtr = ws.rowPtr[:cap(ws.rowPtr)]
	if cap(ws.rowSum) < m {
		ws.rowSum = make([]int32, m)
	}
	ws.rowSum = ws.rowSum[:cap(ws.rowSum)]
	if need := PackedBLen(n, kp); cap(ws.panel) < need {
		ws.panel = make([]int64, need)
	}
	ws.panel = ws.panel[:cap(ws.panel)]
}

// PackedBLen returns the int64 length of the packed dual-lane weight
// layout for an [n, k] weight panel: four words per inner position for
// each full block of eight weight rows (remainder rows stay unpacked).
func PackedBLen(n, k int) int { return (n / 8) * k * 4 }

// PackInt8BInto packs the weight panel b [n, kp] into the biased
// dual-lane word layout the int8 GEMM consumes: block j0/8 occupies
// words [j0/8·kp·4, (j0/8+1)·kp·4), and word p·4+t of a block pairs the
// biased columns (j0+2t, j0+2t+1) at inner position p. Weights are
// stationary across activations, so callers pack once — per quantized
// layer at build time, or per decrypted panel per forward — and reuse
// the packed form for every activation matrix.
func PackInt8BInto(pb []int64, b *Int8Mat) {
	n, kp := b.Rows, b.Cols
	if need := PackedBLen(n, kp); len(pb) < need {
		panic(fmt.Sprintf("tensor: PackInt8BInto packed len %d, need %d", len(pb), need))
	}
	for j0 := 0; j0+8 <= n; j0 += 8 {
		dst := pb[j0/8*kp*4 : (j0/8+1)*kp*4]
		for t := 0; t < 4; t++ {
			be := b.Data[(j0+2*t)*kp : (j0+2*t+1)*kp]
			bo := b.Data[(j0+2*t+1)*kp : (j0+2*t+2)*kp]
			for p := range be {
				dst[p*4+t] = (int64(be[p]) + 128) | (int64(bo[p])+128)<<32
			}
		}
	}
}

// MatMulInt8TransBPrepackedAcc folds one k-panel into C = A×Bᵀ over
// int8 operands with exact int32 accumulation: bPanel [n, kp] holds
// weight columns [p0, p0+kp) of a conceptual [n, k] weight matrix (rows
// = output channels, matching the kernel-matrix layout), pb is bPanel
// packed by PackInt8BInto (its remainder rows are still read from
// bPanel), A is the full [m, ka] activation matrix (only columns
// [p0, p0+kp) are read), and C [m, n] int32 accumulates (acc=true) or
// is overwritten (acc=false). Because the accumulation is exact integer
// arithmetic, any panel split of [0, ka) produces bit-identical C —
// the streaming secure engine relies on this for panel-size and
// worker-count invariance. ws may be nil (allocates); see Int8GEMMWS.
func MatMulInt8TransBPrepackedAcc(c []int32, a *Int8Mat, p0 int, pb []int64, bPanel *Int8Mat, acc bool, ws *Int8GEMMWS) {
	m, ka := a.Rows, a.Cols
	n, kp := bPanel.Rows, bPanel.Cols
	if p0 < 0 || p0+kp > ka {
		panic(fmt.Sprintf("tensor: MatMulInt8TransBPrepackedAcc panel [%d, %d) outside A columns %d", p0, p0+kp, ka))
	}
	if kp > maxPackedDepth {
		panic(fmt.Sprintf("tensor: MatMulInt8TransBPrepackedAcc panel depth %d exceeds packed max %d", kp, maxPackedDepth))
	}
	if len(pb) < PackedBLen(n, kp) {
		panic(fmt.Sprintf("tensor: MatMulInt8TransBPrepackedAcc packed len %d, need %d", len(pb), PackedBLen(n, kp)))
	}
	if len(c) < m*n {
		panic(fmt.Sprintf("tensor: MatMulInt8TransBPrepackedAcc output len %d, need %d", len(c), m*n))
	}
	if ws == nil {
		ws = NewInt8GEMMWS(m, kp, 0)
	}
	ws.ensure(m, kp, 0)
	buildNZ(ws, a.Data, m, ka, p0, kp)
	bd := bPanel.Data
	if m*kp*n < minParallelOps || parallel.Workers() == 1 {
		int8Rows(c, ws, pb, bd, kp, n, 0, m, acc)
		return
	}
	parallel.For(m, 0, func(lo, hi int) {
		int8Rows(c, ws, pb, bd, kp, n, lo, hi, acc)
	})
}

// buildNZ compresses the activation panel columns [p0, p0+kp) of every
// row into the workspace: nz holds lane<<8 | uint8(value) for each
// nonzero lane, rowPtr delimits rows, and rowSum holds Σ of the row's
// values over the panel. Zero lanes contribute nothing to the sum, so
// the sum over nonzero lanes equals the sum over all lanes — the
// identity that lets the biased kernel skip zeros without a
// per-column correction.
func buildNZ(ws *Int8GEMMWS, ad []int8, m, ka, p0, kp int) {
	nz := ws.nz
	w := 0
	for i := 0; i < m; i++ {
		ws.rowPtr[i] = int32(w)
		ai := ad[i*ka+p0 : i*ka+p0+kp : i*ka+p0+kp]
		var sum int32
		// Branchless compaction: every lane is written, the cursor only
		// advances past nonzero ones. Activation sparsity is random, so
		// a skip branch here would mispredict half the time and cost
		// more than the GEMM it feeds; the conditional increment
		// compiles to a flag set, not a jump. The lane offset is stored
		// premultiplied by the packed word stride (4 int64s per lane) so
		// the hot loop decodes it with one shift.
		for p, av := range ai {
			sum += int32(av)
			nz[w] = int32(p)<<10 | int32(uint8(av))
			inc := 0
			if av != 0 {
				inc = 1
			}
			w += inc
		}
		ws.rowSum[i] = sum
	}
	ws.rowPtr[m] = int32(w)
}

// int8Rows computes C rows [lo, hi) of the int8 panel product with a
// biased dual-lane SWAR kernel. Eight weight rows (eight C columns) are
// processed per block: each weight value is biased to ub = b+128 ∈
// [1, 255] and adjacent column pairs are packed into one int64 word
// (ub_even | ub_odd<<32). One signed multiply a·word then yields both
// lane products a·ub at once — |a·ub| ≤ 127·255 = 32385, far inside a
// 32-bit lane — and a 2³⁰ bias per lane keeps every partial sum
// positive, so the packed int64 accumulator never carries between lanes
// and the final lane split is exact. The bias comes out algebraically:
// Σ a·ub = Σ a·b + 128·Σa, and Σa over the row's nonzero lanes equals
// Σa over all lanes, so skipping zeros needs no further correction.
// Net effect: two int8 products per integer multiply and no
// data-dependent branch in the inner loop — which is how this kernel
// outruns the float GEMM even on dense activations, and pulls further
// ahead on post-ReLU sparsity.
func int8Rows(cd []int32, ws *Int8GEMMWS, pb []int64, bd []int8, kp, n, lo, hi int, acc bool) {
	nz, rowPtr, rowSum := ws.nz, ws.rowPtr, ws.rowSum
	nb := n &^ 7
	for j0 := 0; j0 < nb; j0 += 8 {
		pkk := pb[j0/8*kp*4 : (j0/8+1)*kp*4 : (j0/8+1)*kp*4]
		for i := lo; i < hi; i++ {
			a0, a1, a2, a3 := accBias, accBias, accBias, accBias
			nzr := nz[rowPtr[i]:rowPtr[i+1]]
			t := 0
			for ; t+2 <= len(nzr); t += 2 {
				v0, v1 := nzr[t], nzr[t+1]
				x0, x1 := int64(int8(v0)), int64(int8(v1))
				o0, o1 := int(v0>>8), int(v1>>8)
				b0 := pkk[o0 : o0+4 : o0+4]
				b1 := pkk[o1 : o1+4 : o1+4]
				a0 += x0*b0[0] + x1*b1[0]
				a1 += x0*b0[1] + x1*b1[1]
				a2 += x0*b0[2] + x1*b1[2]
				a3 += x0*b0[3] + x1*b1[3]
			}
			if t < len(nzr) {
				v := nzr[t]
				x := int64(int8(v))
				bp := pkk[v>>8 : v>>8+4 : v>>8+4]
				a0 += x * bp[0]
				a1 += x * bp[1]
				a2 += x * bp[2]
				a3 += x * bp[3]
			}
			corr := laneBias32 + rowSum[i]<<7
			cj := cd[i*n+j0 : i*n+j0+8 : i*n+j0+8]
			if acc {
				cj[0] += int32(uint32(a0)) - corr
				cj[1] += int32(uint32(a0>>32)) - corr
				cj[2] += int32(uint32(a1)) - corr
				cj[3] += int32(uint32(a1>>32)) - corr
				cj[4] += int32(uint32(a2)) - corr
				cj[5] += int32(uint32(a2>>32)) - corr
				cj[6] += int32(uint32(a3)) - corr
				cj[7] += int32(uint32(a3>>32)) - corr
				continue
			}
			cj[0] = int32(uint32(a0)) - corr
			cj[1] = int32(uint32(a0>>32)) - corr
			cj[2] = int32(uint32(a1)) - corr
			cj[3] = int32(uint32(a1>>32)) - corr
			cj[4] = int32(uint32(a2)) - corr
			cj[5] = int32(uint32(a2>>32)) - corr
			cj[6] = int32(uint32(a3)) - corr
			cj[7] = int32(uint32(a3>>32)) - corr
		}
	}
	// Remainder columns (n not a multiple of 8): scalar dot over the
	// same nonzero lists, unbiased.
	for j := nb; j < n; j++ {
		bj := bd[j*kp : (j+1)*kp : (j+1)*kp]
		for i := lo; i < hi; i++ {
			var s int32
			if acc {
				s = cd[i*n+j]
			}
			for _, v := range nz[rowPtr[i]:rowPtr[i+1]] {
				s += int32(int8(v)) * int32(bj[v>>10])
			}
			cd[i*n+j] = s
		}
	}
}

// DequantizeInto writes dst[i][j] = float32(c[i][j]) · rowScales[i] ·
// colScales[j] for dst [m, n] — the fully-connected dequantization
// (rowScales = per-sample activation scales, colScales = per-output
// weight scales). Either scale slice may be nil, meaning 1.
func DequantizeInto(dst *Tensor, c []int32, rowScales, colScales []float32) {
	if len(dst.Shape) != 2 {
		panic("tensor: DequantizeInto requires a rank-2 destination")
	}
	m, n := dst.Shape[0], dst.Shape[1]
	if len(c) < m*n {
		panic(fmt.Sprintf("tensor: DequantizeInto accumulator len %d, need %d", len(c), m*n))
	}
	for i := 0; i < m; i++ {
		rs := float32(1)
		if rowScales != nil {
			rs = rowScales[i]
		}
		row := dst.Data[i*n : (i+1)*n]
		ci := c[i*n : (i+1)*n]
		if colScales == nil {
			for j := range row {
				row[j] = float32(ci[j]) * rs
			}
			continue
		}
		for j := range row {
			row[j] = float32(ci[j]) * (rs * colScales[j])
		}
	}
}

// DequantizeTransposeInto writes dst[j][i] = float32(c[i][j]) ·
// colScales[j] · itemScale for accumulator c laid out [m, n] and dst
// [n, m] — the convolution dequantization: the int8 GEMM produces the
// output matrix transposed ([pixels, channels]), and this kernel
// restores the NCHW [channels, pixels] orientation while applying the
// per-output-channel weight scale and the item's activation scale.
func DequantizeTransposeInto(dst *Tensor, c []int32, colScales []float32, itemScale float32) {
	if len(dst.Shape) != 2 {
		panic("tensor: DequantizeTransposeInto requires a rank-2 destination")
	}
	n, m := dst.Shape[0], dst.Shape[1]
	if len(c) < m*n {
		panic(fmt.Sprintf("tensor: DequantizeTransposeInto accumulator len %d, need %d", len(c), m*n))
	}
	if len(colScales) < n {
		panic(fmt.Sprintf("tensor: DequantizeTransposeInto scales len %d, need %d", len(colScales), n))
	}
	for j := 0; j < n; j++ {
		s := colScales[j] * itemScale
		row := dst.Data[j*m : (j+1)*m]
		for i := range row {
			row[i] = float32(c[i*n+j]) * s
		}
	}
}
