package tensor

import (
	"math"
	"testing"

	"seal/internal/prng"
)

// TestQuantizeRoundTripErrorBound is the quantization property test:
// for randomized kernel-matrix shapes and value ranges, the per-row
// symmetric roundtrip q·scale must sit within half a quantization step
// of every original weight, and scale must equal max|row|/127.
func TestQuantizeRoundTripErrorBound(t *testing.T) {
	r := prng.New(31)
	for trial := 0; trial < 40; trial++ {
		rows := 1 + int(r.Uint64()%13)
		cols := 1 + int(r.Uint64()%97)
		mag := math.Pow(10, float64(r.Uint64()%7)-3) // 1e-3 .. 1e3
		w := &Tensor{Shape: []int{rows, cols}, Data: make([]float32, rows*cols)}
		for i := range w.Data {
			w.Data[i] = float32(r.NormFloat64() * mag)
		}
		q := NewInt8Mat(rows, cols)
		scales := make([]float32, rows)
		QuantizeRowsInto(q, scales, w)
		for i := 0; i < rows; i++ {
			row := w.Data[i*cols : (i+1)*cols]
			wantScale := QuantScale(MaxAbsSlice(row))
			if scales[i] != wantScale {
				t.Fatalf("trial %d row %d: scale %v, want %v", trial, i, scales[i], wantScale)
			}
			// Round-to-nearest: half a step, plus float32 rounding slack.
			bound := float64(scales[i])/2*(1+1e-5) + 1e-12
			for j, v := range row {
				qv := q.Data[i*cols+j]
				if qv > QMaxInt8 || qv < -QMaxInt8 {
					t.Fatalf("trial %d (%d,%d): |q| = %d beyond %d", trial, i, j, qv, QMaxInt8)
				}
				back := float64(qv) * float64(scales[i])
				if d := math.Abs(back - float64(v)); d > bound {
					t.Fatalf("trial %d (%d,%d): roundtrip %v vs %v (|Δ| %v > %v, scale %v)",
						trial, i, j, back, v, d, bound, scales[i])
				}
			}
		}
	}
}

// TestQuantizeSaturates pins the saturation edge: under a deliberately
// small scale, values beyond ±127·scale clamp to exactly ±127 instead
// of wrapping, and zero stays exactly zero.
func TestQuantizeSaturates(t *testing.T) {
	src := []float32{0, 1, -1, 126.4, 127.49, 127.51, 500, -500, 1e30, -1e30}
	dst := make([]int8, len(src))
	QuantizeSliceInto(dst, src, 1)
	want := []int8{0, 1, -1, 126, 127, 127, 127, -127, 127, -127}
	for i := range src {
		if dst[i] != want[i] {
			t.Fatalf("quantize(%v, scale 1) = %d, want %d", src[i], dst[i], want[i])
		}
	}
}

// TestInt8GEMMWithinDerivedBound checks the saturating int8 GEMM
// against the float product on randomized shapes, with the analytic
// error bound of symmetric quantization. Writing a = qa·sa + ea,
// b = qb·sb + eb with |e| ≤ s/2, each of the k dot terms errs by at
// most sa·sb·(|qa|/2 + |qb|/2 + 1/4) ≤ sa·sb·127.25, so
//
//	|float − dequant| ≤ k · sa · sb · 127.25
//
// (plus float32 rounding slack in the reference itself).
func TestInt8GEMMWithinDerivedBound(t *testing.T) {
	r := prng.New(32)
	for trial := 0; trial < 25; trial++ {
		m := 1 + int(r.Uint64()%9)
		k := 1 + int(r.Uint64()%120)
		n := 1 + int(r.Uint64()%40)
		af := make([]float32, m*k)
		bf := make([]float32, n*k)
		for i := range af {
			af[i] = float32(r.NormFloat64())
		}
		for i := range bf {
			bf[i] = float32(r.NormFloat64() * 0.5)
		}
		// Sprinkle zeros so the CSR zero-skip path is exercised.
		for i := range af {
			if r.Uint64()%3 == 0 {
				af[i] = 0
			}
		}

		sa := QuantScale(MaxAbsSlice(af))
		qa := NewInt8Mat(m, k)
		QuantizeSliceInto(qa.Data, af, sa)
		qb := NewInt8Mat(n, k)
		sb := make([]float32, n)
		QuantizeRowsInto(qb, sb, &Tensor{Shape: []int{n, k}, Data: bf})

		c := make([]int32, m*n)
		int8GEMM(c, qa, qb, nil, nil)

		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var ref float64
				for p := 0; p < k; p++ {
					ref += float64(af[i*k+p]) * float64(bf[j*k+p])
				}
				got := float64(c[i*n+j]) * float64(sa) * float64(sb[j])
				bound := float64(k)*float64(sa)*float64(sb[j])*127.25 + 1e-6
				if d := math.Abs(got - ref); d > bound {
					t.Fatalf("trial %d [%dx%dx%d] c[%d,%d]: int8 %v vs float %v (|Δ| %v > bound %v)",
						trial, m, k, n, i, j, got, ref, d, bound)
				}
			}
		}
	}
}

// int8GEMM computes C = A×Bᵀ over the full depth the way the secure
// engine and nn do: pack B into pb (nil allocates), then run the
// prepacked kernel.
func int8GEMM(c []int32, a, b *Int8Mat, pb []int64, ws *Int8GEMMWS) {
	if pb == nil {
		pb = make([]int64, PackedBLen(b.Rows, b.Cols))
	}
	PackInt8BInto(pb, b)
	MatMulInt8TransBPrepackedAcc(c, a, 0, pb, b, false, ws)
}
