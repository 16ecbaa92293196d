package aes

import (
	"bytes"
	"testing"

	"seal/internal/parallel"
)

// TestCTRParallelDeterministic checks the hard guarantee the simulator
// relies on: a pool of any width produces keystreams bit-identical to
// SEAL_WORKERS=1, including lengths that are not block multiples.
func TestCTRParallelDeterministic(t *testing.T) {
	c, err := New(bytes.Repeat([]byte{0x5a}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCTR(c)
	for _, n := range []int{1, BlockSize, 64, ctrGrainBlocks * BlockSize, ctrGrainBlocks*BlockSize*3 + 7} {
		prev := parallel.SetWorkers(1)
		serial := ct.Pad(0xdeadbeef, 42, n)
		parallel.SetWorkers(8)
		par := ct.Pad(0xdeadbeef, 42, n)
		parallel.SetWorkers(prev)
		if !bytes.Equal(serial, par) {
			t.Fatalf("n=%d: parallel pad differs from serial", n)
		}
		if len(serial) != n {
			t.Fatalf("n=%d: pad length %d", n, len(serial))
		}
	}
}

// TestXORKeyStreamParallelDeterministic checks the fused pad+XOR path
// against the two-step serial reference and round-trips it.
func TestXORKeyStreamParallelDeterministic(t *testing.T) {
	c, err := New(bytes.Repeat([]byte{0x33}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCTR(c)
	n := ctrGrainBlocks*BlockSize*2 + 5
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	prev := parallel.SetWorkers(1)
	serial := make([]byte, n)
	ct.XORKeyStream(serial, src, 0x1000, 9)
	parallel.SetWorkers(8)
	par := make([]byte, n)
	ct.XORKeyStream(par, src, 0x1000, 9)
	back := make([]byte, n)
	ct.XORKeyStream(back, par, 0x1000, 9)
	parallel.SetWorkers(prev)
	if !bytes.Equal(serial, par) {
		t.Fatal("parallel XORKeyStream differs from serial")
	}
	if !bytes.Equal(back, src) {
		t.Fatal("XORKeyStream is not an involution")
	}
}

// BenchmarkCTRKeystream measures the engine's decrypt call — one
// in-place XORKeyStreamLines over 16 MiB of 64-byte lines — the software
// analogue of an AES engine saturating one memory channel. Compare
// SEAL_WORKERS=1 against the default to isolate the pool's effect.
func BenchmarkCTRKeystream(b *testing.B) {
	c, err := New(bytes.Repeat([]byte{0xa7}, KeySize))
	if err != nil {
		b.Fatal(err)
	}
	ct := NewCTR(c)
	const n = 16 << 20
	buf := make([]byte, n)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.XORKeyStreamLines(buf, buf, uint64(i)<<24, uint64(i), 64)
	}
}
