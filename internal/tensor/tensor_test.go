package tensor

import (
	"testing"
	"testing/quick"

	"seal/internal/prng"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("size = %d, want 24", x.Size())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 0) did not panic")
		}
	}()
	New(2, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// row-major offset check: ((1*4)+2)*5+3 = 33
	if x.Data[33] != 7.5 {
		t.Fatalf("offset mismatch: Data[33] = %v", x.Data[33])
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("reshape did not share data")
	}
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("reshape shape %v", y.Shape)
	}
}

func TestReshapePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := New(4)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("clone shares data with original")
	}
}

func TestArithmetic(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Add(y)
	if x.Data[2] != 33 {
		t.Fatalf("Add: %v", x.Data)
	}
	x = FromSlice([]float32{1, 2, 3}, 3)
	x.Scale(2)
	if x.Data[1] != 4 {
		t.Fatalf("Scale: %v", x.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-1, 2, -3, 4}, 4)
	if s := x.SqSum(); s != 30 {
		t.Fatalf("SqSum = %v", s)
	}
	if m := x.MaxAbs(); m != 4 {
		t.Fatalf("MaxAbs = %v", m)
	}
	if i := x.ArgMax(); i != 3 {
		t.Fatalf("ArgMax = %v", i)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := prng.New(1)
	a := New(5, 5)
	for i := range a.Data {
		a.Data[i] = float32(r.NormFloat64())
	}
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Data[i*5+i] = 1
	}
	c := MatMul(a, id)
	if !Equal(a, c, 0) {
		t.Fatal("A×I != A")
	}
	c = MatMul(id, a)
	if !Equal(a, c, 0) {
		t.Fatal("I×A != A")
	}
}

func TestMatMulTransAgreesWithExplicitTranspose(t *testing.T) {
	r := prng.New(2)
	a := New(4, 3)
	b := New(4, 5)
	for i := range a.Data {
		a.Data[i] = float32(r.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = float32(r.NormFloat64())
	}
	got := MatMulTransA(a, b)
	want := MatMul(a.Transpose(), b)
	if !Equal(got, want, 1e-5) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}

	d := New(6, 3)
	for i := range d.Data {
		d.Data[i] = float32(r.NormFloat64())
	}
	got = MatMulTransB(a, d) // [4,3] × [6,3]ᵀ = [4,6]
	want = MatMul(a, d.Transpose())
	if !Equal(got, want, 1e-5) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A×B)×C == A×(B×C) within float tolerance, on small random matrices.
	check := func(seed uint64) bool {
		r := prng.New(seed)
		dims := []int{r.Intn(4) + 1, r.Intn(4) + 1, r.Intn(4) + 1, r.Intn(4) + 1}
		a, b, c := New(dims[0], dims[1]), New(dims[1], dims[2]), New(dims[2], dims[3])
		for _, m := range []*Tensor{a, b, c} {
			for i := range m.Data {
				m.Data[i] = float32(r.NormFloat64())
			}
		}
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return Equal(left, right, 1e-3)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	check := func(seed uint64) bool {
		r := prng.New(seed)
		m, n := r.Intn(6)+1, r.Intn(6)+1
		a := New(m, n)
		for i := range a.Data {
			a.Data[i] = float32(r.NormFloat64())
		}
		return Equal(a, a.Transpose().Transpose(), 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	row := a.Row(1)
	if row.Size() != 3 || row.Data[0] != 4 {
		t.Fatalf("Row(1) = %v", row.Data)
	}
	row.Data[0] = 99
	if a.At(1, 0) != 99 {
		t.Fatal("Row is not a view")
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(2, 3), New(3, 2), 1) {
		t.Fatal("Equal ignored shape mismatch")
	}
	if !SameShape(New(2, 3), New(2, 3)) {
		t.Fatal("SameShape false negative")
	}
}
