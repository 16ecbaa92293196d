// Package tensor implements a minimal dense float32 tensor library used by
// the neural-network substrate. Layout is row-major; convolutional data
// uses NCHW order (batch, channel, height, width) matching the paper's
// per-channel encryption granularity.
package tensor

import (
	"fmt"
	"math"

	"seal/internal/parallel"
)

// minParallelOps is the kernel size (in multiply-accumulates) below
// which the GEMM and im2col kernels stay serial: goroutine dispatch
// costs on the order of a microsecond, so matrices smaller than this do
// not amortize it. The cutover does not affect results — every parallel
// kernel below produces each output element with the same per-element
// operation order as the serial loop, so serial and parallel outputs
// are bit-identical by construction.
const minParallelOps = 1 << 15

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics on
// non-positive dimensions, since every shape in this repository is static
// and a bad dimension is a programming error.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// It panics if the element count does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the i-th dimension.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view sharing data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// At returns the element at the given multi-index (rank must match).
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Add accumulates src into t element-wise. Shapes must have equal size.
func (t *Tensor) Add(src *Tensor) {
	if len(src.Data) != len(t.Data) {
		panic("tensor: Add size mismatch")
	}
	for i, v := range src.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// SqSum returns the squared L2 norm in float64 precision.
func (t *Tensor) SqSum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return s
}

// MaxAbs returns the maximum absolute element value.
func (t *Tensor) MaxAbs() float32 {
	m := float32(0)
	for _, v := range t.Data {
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

// ArgMax returns the index of the largest element of a rank-1 tensor (or
// of the flattened data for higher ranks).
func (t *Tensor) ArgMax() int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range t.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Row returns a view of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: Row requires rank-2 tensor")
	}
	cols := t.Shape[1]
	return FromSlice(t.Data[i*cols:(i+1)*cols], cols)
}

// MatMul computes C = A×B for rank-2 tensors A [m,k] and B [k,n],
// writing into a freshly allocated C [m,n]. The kernel is cache-blocked
// on k with an ikj loop order, which is the standard portable layout for
// row-major GEMM.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// matMulPanelCols is the register-block width of the GEMM inner kernel:
// eight C columns are held in registers across the whole k loop.
const matMulPanelCols = 8

// MatMulPanelLen returns the scratch length MatMulIntoWS needs for a
// given inner dimension k (one packed B panel of k×8 floats). Callers
// that reuse a workspace across calls size it with this.
func MatMulPanelLen(k int) int { return k * matMulPanelCols }

// MatMulInto computes C = A×B into an existing C, which must have shape
// [m,n]. C is overwritten. It allocates a transient packing panel; hot
// loops that must not allocate pass a reusable one to MatMulIntoWS.
func MatMulInto(c, a, b *Tensor) { MatMulIntoWS(c, a, b, nil) }

// MatMulIntoWS is MatMulInto with a caller-owned packing scratch of at
// least MatMulPanelLen(k) floats. A nil panel is allocated internally;
// a non-nil but undersized panel panics with the required length — a
// short workspace means the caller sized it for the wrong k, and
// silently allocating would hide the bug as a per-call allocation on a
// path that exists to avoid exactly that.
// Rows of C are independent, so the kernel is row-blocked across the
// worker pool; each row accumulates over k in ascending order exactly
// as in the serial loop, keeping parallel output bit-identical to
// serial.
func MatMulIntoWS(c, a, b *Tensor, panel []float32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulInto output shape mismatch")
	}
	if panel != nil && len(panel) < k*matMulPanelCols {
		panic(fmt.Sprintf("tensor: MatMulIntoWS panel len %d, need MatMulPanelLen(%d) = %d", len(panel), k, k*matMulPanelCols))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	// Workers()==1 skips the closure entirely: the serial path is a
	// plain call, so hot inference loops stay allocation-free.
	if m*k*n < minParallelOps || parallel.Workers() == 1 {
		if panel == nil {
			panel = make([]float32, k*matMulPanelCols)
		}
		matMulRows(cd, ad, bd, panel, k, n, 0, m)
		return
	}
	// Each worker chunk packs its own panel: packing is O(k·n) per
	// worker against O(k·n·rows) compute, and private panels keep the
	// chunks write-disjoint.
	parallel.For(m, 0, func(lo, hi int) {
		matMulRows(cd, ad, bd, make([]float32, k*matMulPanelCols), k, n, lo, hi)
	})
}

// matMulRows is the register-blocked GEMM inner kernel for output rows
// [lo, hi). Eight C columns are held in registers across the whole k
// loop, so each accumulator is loaded and stored once per row instead
// of once per (p, j) pair. The B column block is first packed into the
// contiguous panel — every matrix here has power-of-two row length, so
// walking B column-wise in place would hit a cache-set conflict on
// nearly every load; the packed panel streams sequentially and is
// reused by all rows of the chunk. The unroll is across j only: every
// c[i][j] still accumulates over p in ascending order with the same
// av==0 skip as the scalar loop, and packing copies values exactly, so
// the result is bit-identical to the serial reference — register
// blocking changes the memory traffic, never the float operation order
// within an output element.
func matMulRows(cd, ad, bd, panel []float32, k, n, lo, hi int) {
	nb := n &^ (matMulPanelCols - 1)
	for j0 := 0; j0 < nb; j0 += matMulPanelCols {
		pk := panel[: k*matMulPanelCols : k*matMulPanelCols]
		for p := 0; p < k; p++ {
			copy(pk[p*matMulPanelCols:(p+1)*matMulPanelCols], bd[p*n+j0:p*n+j0+matMulPanelCols])
		}
		for i := lo; i < hi; i++ {
			ai := ad[i*k : (i+1)*k]
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for p, av := range ai {
				if av == 0 {
					continue
				}
				bp := pk[p*8 : p*8+8 : p*8+8]
				c0 += av * bp[0]
				c1 += av * bp[1]
				c2 += av * bp[2]
				c3 += av * bp[3]
				c4 += av * bp[4]
				c5 += av * bp[5]
				c6 += av * bp[6]
				c7 += av * bp[7]
			}
			cj := cd[i*n+j0 : i*n+j0+8 : i*n+j0+8]
			cj[0], cj[1], cj[2], cj[3] = c0, c1, c2, c3
			cj[4], cj[5], cj[6], cj[7] = c4, c5, c6, c7
		}
	}
	// Remainder columns (n not a multiple of the panel width, or narrow
	// matrices like the deepest conv stages where npos < 8) are blocked
	// across rows instead: eight (then four) C elements of one column
	// accumulate in registers, amortizing the strided B load across the
	// rows and breaking the single-accumulator add-latency chain. Each
	// element still sums over p ascending and skips exactly the av==0
	// terms, so the result is bit-identical to the scalar loop.
	for j := nb; j < n; j++ {
		i0 := lo
		for ; i0+8 <= hi; i0 += 8 {
			a0 := ad[(i0+0)*k : (i0+1)*k : (i0+1)*k]
			a1 := ad[(i0+1)*k : (i0+2)*k : (i0+2)*k]
			a2 := ad[(i0+2)*k : (i0+3)*k : (i0+3)*k]
			a3 := ad[(i0+3)*k : (i0+4)*k : (i0+4)*k]
			a4 := ad[(i0+4)*k : (i0+5)*k : (i0+5)*k]
			a5 := ad[(i0+5)*k : (i0+6)*k : (i0+6)*k]
			a6 := ad[(i0+6)*k : (i0+7)*k : (i0+7)*k]
			a7 := ad[(i0+7)*k : (i0+8)*k : (i0+8)*k]
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for p := 0; p < k; p++ {
				bv := bd[p*n+j]
				if av := a0[p]; av != 0 {
					c0 += av * bv
				}
				if av := a1[p]; av != 0 {
					c1 += av * bv
				}
				if av := a2[p]; av != 0 {
					c2 += av * bv
				}
				if av := a3[p]; av != 0 {
					c3 += av * bv
				}
				if av := a4[p]; av != 0 {
					c4 += av * bv
				}
				if av := a5[p]; av != 0 {
					c5 += av * bv
				}
				if av := a6[p]; av != 0 {
					c6 += av * bv
				}
				if av := a7[p]; av != 0 {
					c7 += av * bv
				}
			}
			cd[(i0+0)*n+j] = c0
			cd[(i0+1)*n+j] = c1
			cd[(i0+2)*n+j] = c2
			cd[(i0+3)*n+j] = c3
			cd[(i0+4)*n+j] = c4
			cd[(i0+5)*n+j] = c5
			cd[(i0+6)*n+j] = c6
			cd[(i0+7)*n+j] = c7
		}
		for ; i0+4 <= hi; i0 += 4 {
			a0 := ad[(i0+0)*k : (i0+1)*k : (i0+1)*k]
			a1 := ad[(i0+1)*k : (i0+2)*k : (i0+2)*k]
			a2 := ad[(i0+2)*k : (i0+3)*k : (i0+3)*k]
			a3 := ad[(i0+3)*k : (i0+4)*k : (i0+4)*k]
			var c0, c1, c2, c3 float32
			for p := 0; p < k; p++ {
				bv := bd[p*n+j]
				if av := a0[p]; av != 0 {
					c0 += av * bv
				}
				if av := a1[p]; av != 0 {
					c1 += av * bv
				}
				if av := a2[p]; av != 0 {
					c2 += av * bv
				}
				if av := a3[p]; av != 0 {
					c3 += av * bv
				}
			}
			cd[(i0+0)*n+j] = c0
			cd[(i0+1)*n+j] = c1
			cd[(i0+2)*n+j] = c2
			cd[(i0+3)*n+j] = c3
		}
		for i := i0; i < hi; i++ {
			ai := ad[i*k : (i+1)*k]
			var s float32
			for p, av := range ai {
				if av == 0 {
					continue
				}
				s += av * bd[p*n+j]
			}
			cd[i*n+j] = s
		}
	}
}

// MatMulTransA computes C = Aᵀ×B for A [k,m] and B [k,n] into C [m,n].
// Used for weight-gradient computation in backprop.
func MatMulTransA(a, b *Tensor) *Tensor {
	c := New(a.Shape[1], b.Shape[1])
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransAScratchLen returns the scratch length MatMulTransAIntoWS
// needs for A [k,m]: room to transpose A plus one packing panel.
func MatMulTransAScratchLen(k, m int) int { return k*m + MatMulPanelLen(k) }

// MatMulTransAInto computes C = Aᵀ×B into an existing C [m,n],
// overwriting it. It allocates transient scratch; hot loops pass a
// reusable one to MatMulTransAIntoWS.
func MatMulTransAInto(c, a, b *Tensor) { MatMulTransAIntoWS(c, a, b, nil) }

// MatMulTransAIntoWS is MatMulTransAInto with caller-owned scratch of
// at least MatMulTransAScratchLen(k, m) floats (nil → allocated; short
// → panic, matching MatMulIntoWS). A is first transposed into the
// scratch and the register-blocked MatMul kernel runs on the copy:
// every C element then accumulates over p ascending with the same
// av==0 skip set as the historical p-outer loop, so the output is
// bit-identical to it — the transpose moves bytes, never changing the
// float operation order within an element.
func MatMulTransAIntoWS(c, a, b *Tensor, scratch []float32) {
	k, m := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic("tensor: MatMulTransA inner dims mismatch")
	}
	n := b.Shape[1]
	if c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulTransAInto output shape mismatch")
	}
	need := MatMulTransAScratchLen(k, m)
	if scratch == nil {
		scratch = make([]float32, need)
	} else if len(scratch) < need {
		panic(fmt.Sprintf("tensor: MatMulTransAIntoWS scratch len %d, need MatMulTransAScratchLen(%d, %d) = %d", len(scratch), k, m, need))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	at := scratch[:k*m]
	panel := scratch[k*m : k*m+MatMulPanelLen(k)]
	if m*k*n < minParallelOps || parallel.Workers() == 1 {
		transposeInto(at, ad, k, m)
		matMulRows(cd, at, bd, panel, k, n, 0, m)
		return
	}
	// Transpose rows of Aᵀ are disjoint per worker chunk; the GEMM then
	// row-blocks C with per-worker private panels as in MatMulIntoWS.
	parallel.For(m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for p := 0; p < k; p++ {
				at[i*k+p] = ad[p*m+i]
			}
		}
	})
	parallel.For(m, 0, func(lo, hi int) {
		matMulRows(cd, at, bd, make([]float32, MatMulPanelLen(k)), k, n, lo, hi)
	})
}

// transposeInto writes the [m,k] transpose of the row-major [k,m]
// matrix src into dst.
func transposeInto(dst, src []float32, k, m int) {
	for p := 0; p < k; p++ {
		row := src[p*m : (p+1)*m]
		for i, v := range row {
			dst[i*k+p] = v
		}
	}
}

// MatMulTransB computes C = A×Bᵀ for A [m,k] and B [n,k] into C [m,n].
// Used for input-gradient computation in backprop.
func MatMulTransB(a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[0])
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes C = A×Bᵀ into an existing C [m,n],
// overwriting it. It allocates a transient packing panel; hot loops
// pass a reusable one to MatMulTransBIntoWS.
func MatMulTransBInto(c, a, b *Tensor) { MatMulTransBIntoWS(c, a, b, nil) }

// MatMulTransBIntoWS is MatMulTransBInto with a caller-owned packing
// scratch of at least MatMulPanelLen(k) floats (nil → allocated; short
// → panic, matching MatMulIntoWS). Eight B rows at a time are packed
// p-major into the panel so the inner loop streams one contiguous
// buffer instead of eight strided rows, with eight C columns held in
// registers. Every dot product still sums over p in ascending order
// with no zero skip, exactly as the historical four-wide kernel, so
// the output is bit-identical to it.
func MatMulTransBIntoWS(c, a, b *Tensor, panel []float32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k {
		panic("tensor: MatMulTransB inner dims mismatch")
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulTransBInto output shape mismatch")
	}
	if panel != nil && len(panel) < MatMulPanelLen(k) {
		panic(fmt.Sprintf("tensor: MatMulTransBIntoWS panel len %d, need MatMulPanelLen(%d) = %d", len(panel), k, MatMulPanelLen(k)))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	if m*k*n < minParallelOps || parallel.Workers() == 1 {
		if panel == nil {
			panel = make([]float32, MatMulPanelLen(k))
		}
		matMulTransBRows(cd, ad, bd, panel, k, n, 0, m)
		return
	}
	// The panel packs B columns (shared by all C rows), so each worker
	// chunk packs its own private copy and the chunks stay
	// write-disjoint.
	parallel.For(m, 0, func(lo, hi int) {
		matMulTransBRows(cd, ad, bd, make([]float32, MatMulPanelLen(k)), k, n, lo, hi)
	})
}

// matMulTransBRows computes rows [lo, hi) of C = A×Bᵀ. Eight B rows
// (eight C columns) are packed p-major into the panel and accumulated
// in registers per pass over ai, which reuses each av load eight times
// and turns eight strided B streams into one sequential one; every dot
// product still sums over p in ascending order with no zero skip,
// bit-identical to the one-column-at-a-time loop.
func matMulTransBRows(cd, ad, bd, panel []float32, k, n, lo, hi int) {
	nb := n &^ (matMulPanelCols - 1)
	// With at most eight output rows the panel pack (O(k·n) copies) no
	// longer amortizes; the row-blocked kernel below covers the whole
	// chunk in one or two register blocks and reads A and B sequentially
	// with no packing at all, computing every element identically.
	if hi-lo <= 8 {
		nb = 0
	}
	for j0 := 0; j0 < nb; j0 += matMulPanelCols {
		pk := panel[: k*matMulPanelCols : k*matMulPanelCols]
		for t := 0; t < matMulPanelCols; t++ {
			bt := bd[(j0+t)*k : (j0+t+1)*k]
			for p, v := range bt {
				pk[p*matMulPanelCols+t] = v
			}
		}
		for i := lo; i < hi; i++ {
			ai := ad[i*k : (i+1)*k]
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for p, av := range ai {
				bp := pk[p*8 : p*8+8 : p*8+8]
				c0 += av * bp[0]
				c1 += av * bp[1]
				c2 += av * bp[2]
				c3 += av * bp[3]
				c4 += av * bp[4]
				c5 += av * bp[5]
				c6 += av * bp[6]
				c7 += av * bp[7]
			}
			cj := cd[i*n+j0 : i*n+j0+8 : i*n+j0+8]
			cj[0], cj[1], cj[2], cj[3] = c0, c1, c2, c3
			cj[4], cj[5], cj[6], cj[7] = c4, c5, c6, c7
		}
	}
	// Remainder columns are blocked across rows (eight, then four, C
	// elements of one column in registers): the B row load is shared by
	// all lanes and the independent accumulators break the add-latency
	// chain of the scalar loop. Per element the sum still runs over p
	// ascending with no zero skip — bit-identical.
	for j := nb; j < n; j++ {
		bj := bd[j*k : (j+1)*k : (j+1)*k]
		i0 := lo
		for ; i0+8 <= hi; i0 += 8 {
			a0 := ad[(i0+0)*k : (i0+1)*k : (i0+1)*k]
			a1 := ad[(i0+1)*k : (i0+2)*k : (i0+2)*k]
			a2 := ad[(i0+2)*k : (i0+3)*k : (i0+3)*k]
			a3 := ad[(i0+3)*k : (i0+4)*k : (i0+4)*k]
			a4 := ad[(i0+4)*k : (i0+5)*k : (i0+5)*k]
			a5 := ad[(i0+5)*k : (i0+6)*k : (i0+6)*k]
			a6 := ad[(i0+6)*k : (i0+7)*k : (i0+7)*k]
			a7 := ad[(i0+7)*k : (i0+8)*k : (i0+8)*k]
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for p, bv := range bj {
				c0 += a0[p] * bv
				c1 += a1[p] * bv
				c2 += a2[p] * bv
				c3 += a3[p] * bv
				c4 += a4[p] * bv
				c5 += a5[p] * bv
				c6 += a6[p] * bv
				c7 += a7[p] * bv
			}
			cd[(i0+0)*n+j] = c0
			cd[(i0+1)*n+j] = c1
			cd[(i0+2)*n+j] = c2
			cd[(i0+3)*n+j] = c3
			cd[(i0+4)*n+j] = c4
			cd[(i0+5)*n+j] = c5
			cd[(i0+6)*n+j] = c6
			cd[(i0+7)*n+j] = c7
		}
		for ; i0+4 <= hi; i0 += 4 {
			a0 := ad[(i0+0)*k : (i0+1)*k : (i0+1)*k]
			a1 := ad[(i0+1)*k : (i0+2)*k : (i0+2)*k]
			a2 := ad[(i0+2)*k : (i0+3)*k : (i0+3)*k]
			a3 := ad[(i0+3)*k : (i0+4)*k : (i0+4)*k]
			var c0, c1, c2, c3 float32
			for p, bv := range bj {
				c0 += a0[p] * bv
				c1 += a1[p] * bv
				c2 += a2[p] * bv
				c3 += a3[p] * bv
			}
			cd[(i0+0)*n+j] = c0
			cd[(i0+1)*n+j] = c1
			cd[(i0+2)*n+j] = c2
			cd[(i0+3)*n+j] = c3
		}
		for i := i0; i < hi; i++ {
			ai := ad[i*k : (i+1)*k]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			cd[i*n+j] = s
		}
	}
}

// Transpose returns a new rank-2 tensor that is the transpose of t.
func (t *Tensor) Transpose() *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	out := New(t.Shape[1], t.Shape[0])
	TransposeInto(out, t)
	return out
}

// TransposeInto writes the transpose of rank-2 src [m,n] into the
// caller-owned dst [n,m], overwriting it.
func TransposeInto(dst, src *Tensor) {
	if len(src.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: TransposeInto requires rank-2 tensors")
	}
	m, n := src.Shape[0], src.Shape[1]
	if dst.Shape[0] != n || dst.Shape[1] != m {
		panic(fmt.Sprintf("tensor: TransposeInto output %v for input %v", dst.Shape, src.Shape))
	}
	transposeInto(dst.Data, src.Data, m, n)
}

// Equal reports element-wise equality within tolerance eps.
func Equal(a, b *Tensor, eps float32) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// String renders a short description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
