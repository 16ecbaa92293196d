package aes

import (
	"bytes"
	"testing"
)

// TestXORKeyStreamLinesMatchesPerLine checks the contract the streaming
// decrypt path depends on: one bulk call over a run of lines produces
// exactly the bytes of a per-line XORKeyStream loop, because the block
// index restarts at every line boundary.
func TestXORKeyStreamLinesMatchesPerLine(t *testing.T) {
	c, err := New(bytes.Repeat([]byte{0x4c}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCTR(c)
	const lineBytes = 64
	for _, lines := range []int{1, 2, 3, 17, 64} {
		n := lines * lineBytes
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*11 + lines)
		}
		want := make([]byte, n)
		for l := 0; l < lines; l++ {
			off := l * lineBytes
			ct.XORKeyStream(want[off:off+lineBytes], src[off:off+lineBytes], 0x4000+uint64(off), 7)
		}
		got := make([]byte, n)
		ct.XORKeyStreamLines(got, src, 0x4000, 7, lineBytes)
		if !bytes.Equal(got, want) {
			t.Fatalf("lines=%d: bulk keystream differs from per-line loop", lines)
		}
	}
}

// TestXORKeyStreamLinesAliasedInvolution checks that the bulk path is an
// involution when dst and src alias exactly.
func TestXORKeyStreamLinesAliasedInvolution(t *testing.T) {
	c, err := New(bytes.Repeat([]byte{0x91}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCTR(c)
	const lineBytes = 64
	n := 196 * lineBytes
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 13)
	}
	enc := make([]byte, n)
	ct.XORKeyStreamLines(enc, src, 0x8000, 3, lineBytes)
	back := append([]byte(nil), enc...)
	ct.XORKeyStreamLines(back, back, 0x8000, 3, lineBytes) // exact aliasing
	if !bytes.Equal(back, src) {
		t.Fatal("XORKeyStreamLines is not an involution under aliasing")
	}
}

func TestXORKeyStreamLinesPanics(t *testing.T) {
	c, err := New(bytes.Repeat([]byte{0x10}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCTR(c)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	buf := make([]byte, 128)
	expectPanic("partial line", func() { ct.XORKeyStreamLines(buf, buf[:96], 0, 1, 64) })
	expectPanic("bad lineBytes", func() { ct.XORKeyStreamLines(buf, buf, 0, 1, 24) })
	expectPanic("short dst", func() { ct.XORKeyStreamLines(buf[:64], buf, 0, 1, 64) })
}

// BenchmarkCTRKeystream measures the bulk keystream: one in-place
// XORKeyStreamLines over 16 MiB of 64-byte lines, the software analogue
// of an AES engine saturating one memory channel.
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
