package aes

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// tablePad is the CTR keystream computed on the from-scratch T-table
// cipher: block blk of the stream for (lineAddr, counter) is
// Cipher.Encrypt(lineAddr ‖ counter⊕blk<<56). It is the byte-level
// oracle the crypto/aes-backed CTR must reproduce.
func tablePad(c *Cipher, lineAddr, counter uint64, n int) []byte {
	pad := make([]byte, 0, n+BlockSize)
	var in, out [BlockSize]byte
	for blk := 0; len(pad) < n; blk++ {
		binary.BigEndian.PutUint64(in[0:8], lineAddr)
		binary.BigEndian.PutUint64(in[8:16], counter^uint64(blk)<<56)
		c.Encrypt(out[:], in[:])
		pad = append(pad, out[:]...)
	}
	return pad[:n]
}

func xorInto(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// TestCTRMatchesTableOracle checks every keystream entry point against
// the T-table oracle over random keys, line addresses, counters and
// lengths, so a backend that changed a single ciphertext byte fails
// here (the other CTR tests compare the CTR only with itself).
func TestCTRMatchesTableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 200; i++ {
		c, err := New(randBytes(KeySize))
		if err != nil {
			t.Fatal(err)
		}
		ct := NewCTR(c)
		addr, counter := rng.Uint64(), rng.Uint64()

		// Pad and in-place XORKeyStream: any length up to one stream,
		// partial tail blocks included.
		n := rng.Intn(maxStreamBlocks*BlockSize + 1)
		want := tablePad(c, addr, counter, n)
		if got := ct.Pad(addr, counter, n); !bytes.Equal(got, want) {
			t.Fatalf("case %d: Pad(%#x, %d, %d) differs from the T-table oracle", i, addr, counter, n)
		}
		src := randBytes(n)
		xorInto(want, want, src)
		buf := append([]byte(nil), src...)
		ct.XORKeyStream(buf, buf, addr, counter)
		if !bytes.Equal(buf, want) {
			t.Fatalf("case %d: in-place XORKeyStream over %d bytes differs from the T-table oracle", i, n)
		}

		// XORKeyStreamLines: 16 B to 4 KiB lines, out of place and
		// exactly aliased.
		lineBytes := BlockSize << rng.Intn(9)
		lines := 1 + rng.Intn(24)
		src = randBytes(lines * lineBytes)
		want = make([]byte, len(src))
		for l := 0; l < lines; l++ {
			off := l * lineBytes
			xorInto(want[off:off+lineBytes], src[off:off+lineBytes],
				tablePad(c, addr+uint64(off), counter, lineBytes))
		}
		out := make([]byte, len(src))
		ct.XORKeyStreamLines(out, src, addr, counter, lineBytes)
		inPlace := append([]byte(nil), src...)
		ct.XORKeyStreamLines(inPlace, inPlace, addr, counter, lineBytes)
		if !bytes.Equal(out, want) || !bytes.Equal(inPlace, want) {
			t.Fatalf("case %d: XORKeyStreamLines over %d × %d B differs from the T-table oracle",
				i, lines, lineBytes)
		}
	}
}

// TestStreamLimitPanicsUpFront pins the 4 KiB keystream limit. At the
// limit all 256 pad blocks are distinct; one block more would wrap the
// block index and repeat block 0's pad, so every entry point must
// refuse such a stream before writing anything.
func TestStreamLimitPanicsUpFront(t *testing.T) {
	c, _ := New(make([]byte, KeySize))
	ct := NewCTR(c)
	const limit = maxStreamBlocks * BlockSize
	pad := ct.Pad(0x1000, 1, limit)
	seen := map[string]bool{}
	for off := 0; off < limit; off += BlockSize {
		blk := string(pad[off : off+BlockSize])
		if seen[blk] {
			t.Fatalf("pad block at offset %d repeats inside one 4 KiB stream", off)
		}
		seen[blk] = true
	}
	buf := make([]byte, 2*limit)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Pad", func() { ct.Pad(0x1000, 1, limit+1) }},
		{"XORKeyStream", func() { ct.XORKeyStream(buf, buf[:limit+1], 0x1000, 1) }},
		{"XORKeyStreamLines", func() { ct.XORKeyStreamLines(buf, buf, 0x1000, 1, 2*limit) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: stream beyond 4 KiB accepted", tc.name)
				}
			}()
			tc.fn()
		}()
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatalf("%s: buffer written before the panic", tc.name)
		}
	}
}

// TestCTRZeroAllocs pins the allocation trap of the crypto/aes backend:
// cipher.Block is an interface, so any stack buffer passed to Encrypt
// escapes and allocates per call. The bulk path and a whole-line
// XORKeyStream must stay allocation-free.
func TestCTRZeroAllocs(t *testing.T) {
	c, _ := New(bytes.Repeat([]byte{0x6b}, KeySize))
	ct := NewCTR(c)
	run := make([]byte, 16<<10)
	if n := testing.AllocsPerRun(20, func() { ct.XORKeyStreamLines(run, run, 0x4000, 1, 64) }); n != 0 {
		t.Errorf("XORKeyStreamLines allocated %v times per run", n)
	}
	line := make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() { ct.XORKeyStream(line, line, 0x4000, 1) }); n != 0 {
		t.Errorf("64-byte in-place XORKeyStream allocated %v times per run", n)
	}
}
