package tensor

import (
	"math/rand"
	"testing"
)

// benchShape is one VGG-representative per-item GEMM: the float conv
// kernel computes [outC, ncols] = W[outC, k] × cols[k, ncols]; the int8
// kernel computes the transpose [ncols, outC] = A[ncols, k] × W[outC, k]ᵀ.
type benchShape struct {
	name         string
	ncols, k, oc int
}

var benchShapes = []benchShape{
	{"early_1024x144x16", 1024, 144, 16},
	{"mid_256x576x64", 256, 576, 64},
	{"deep_64x1152x128", 64, 1152, 128},
	{"fc_16x2048x128", 16, 2048, 128},
}

// fillSparse fills a float tensor with ~half exact zeros (post-ReLU
// statistics) and the matching quantized int8 view.
func fillSparse(rng *rand.Rand, f []float32, q []int8, scale float32) {
	for i := range f {
		if rng.Intn(2) == 0 {
			f[i], q[i] = 0, 0
			continue
		}
		v := int8(rng.Intn(127) + 1)
		q[i] = v
		f[i] = float32(v) * scale
	}
}

func BenchmarkGEMMFloatConvShape(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w := New(s.oc, s.k)
			for i := range w.Data {
				w.Data[i] = rng.Float32()*2 - 1
			}
			cols := New(s.k, s.ncols)
			q := make([]int8, s.k*s.ncols)
			fillSparse(rng, cols.Data, q, 0.05)
			out := New(s.oc, s.ncols)
			ws := make([]float32, MatMulPanelLen(s.k))
			b.SetBytes(int64(s.oc * s.k * s.ncols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulIntoWS(out, w, cols, ws)
			}
		})
	}
}

func BenchmarkGEMMInt8ConvShape(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			wq := NewInt8Mat(s.oc, s.k)
			for i := range wq.Data {
				wq.Data[i] = int8(rng.Intn(255) - 127)
			}
			a := NewInt8Mat(s.ncols, s.k)
			f := make([]float32, s.ncols*s.k)
			fillSparse(rng, f, a.Data, 0.05)
			c := make([]int32, s.ncols*s.oc)
			pb := make([]int64, PackedBLen(s.oc, s.k))
			ws := NewInt8GEMMWS(s.ncols, s.k, 0)
			b.SetBytes(int64(s.oc * s.k * s.ncols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				int8GEMM(c, a, wq, pb, ws)
			}
		})
	}
}

func BenchmarkGEMMInt8ConvShapeDense(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			wq := NewInt8Mat(s.oc, s.k)
			for i := range wq.Data {
				wq.Data[i] = int8(rng.Intn(255) - 127)
			}
			a := NewInt8Mat(s.ncols, s.k)
			for i := range a.Data {
				a.Data[i] = int8(rng.Intn(254)-127) | 1
			}
			c := make([]int32, s.ncols*s.oc)
			pb := make([]int64, PackedBLen(s.oc, s.k))
			ws := NewInt8GEMMWS(s.ncols, s.k, 0)
			b.SetBytes(int64(s.oc * s.k * s.ncols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				int8GEMM(c, a, wq, pb, ws)
			}
		})
	}
}

// TestInt8GEMMQuick pins the SWAR kernel against a naive reference on a
// few awkward shapes (remainder columns, odd sizes, extreme values).
func TestInt8GEMMQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 31, 9}, {33, 144, 16}, {8, 64, 10}, {5, 9, 8}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := NewInt8Mat(m, k)
		bq := NewInt8Mat(n, k)
		for i := range a.Data {
			switch rng.Intn(4) {
			case 0:
				a.Data[i] = 0
			case 1:
				a.Data[i] = int8(rng.Intn(255) - 127)
			case 2:
				a.Data[i] = 127
			default:
				a.Data[i] = -127
			}
		}
		for i := range bq.Data {
			bq.Data[i] = int8(rng.Intn(255) - 127)
		}
		got := make([]int32, m*n)
		int8GEMM(got, a, bq, nil, nil)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want int32
				for p := 0; p < k; p++ {
					want += int32(a.Data[i*k+p]) * int32(bq.Data[j*k+p])
				}
				if got[i*n+j] != want {
					t.Fatalf("shape %v c[%d][%d] = %d, want %d", sh, i, j, got[i*n+j], want)
				}
			}
		}
	}
}
