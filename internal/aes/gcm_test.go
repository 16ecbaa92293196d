package aes

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// tableGCMKeystream is GCM's counter-mode keystream computed on the
// from-scratch T-table cipher: block i is Cipher.Encrypt(nonce ‖ i+2),
// the 32-bit big-endian block counter starting after the one GCM
// reserves for the tag mask (NIST SP 800-38D §7.1, 96-bit IV).
func tableGCMKeystream(c *Cipher, nonce []byte, n int) []byte {
	ks := make([]byte, 0, n+BlockSize)
	var in, out [BlockSize]byte
	copy(in[:NonceSize], nonce)
	for i := uint32(0); len(ks) < n; i++ {
		binary.BigEndian.PutUint32(in[NonceSize:], i+2)
		c.Encrypt(out[:], in[:])
		ks = append(ks, out[:]...)
	}
	return ks[:n]
}

// TestGCMMatchesTableOracle seals random blocks under random keys and
// nonces and checks the ciphertext against the T-table oracle's
// keystream, then that Open recovers the block and OpenMAC accepts the
// GMAC tag of a plaintext block, and that both reject a random
// single-bit flip of block or tag.
func TestGCMMatchesTableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 100; i++ {
		key := make([]byte, KeySize)
		rng.Read(key)
		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGCM(c)
		nonce := make([]byte, NonceSize)
		PutNonce(nonce, rng.Uint64(), uint32(rng.Int63n(maxCounter+1)), false)
		n := 1 + rng.Intn(4096)
		pt := make([]byte, n)
		rng.Read(pt)

		sealed := make([]byte, n, n+TagSize)
		copy(sealed, pt)
		g.Seal(sealed, nonce)
		ks := tableGCMKeystream(c, nonce, n)
		for j := range pt {
			if sealed[j] != pt[j]^ks[j] {
				t.Fatalf("case %d: ciphertext byte %d differs from the T-table oracle's keystream", i, j)
			}
		}
		sealed = sealed[:n+TagSize]
		out := make([]byte, n)
		if err := g.Open(out, sealed, nonce); err != nil || !bytes.Equal(out, pt) {
			t.Fatalf("case %d: Open = %v, plaintext recovered %v", i, err, bytes.Equal(out, pt))
		}
		bit := rng.Intn(len(sealed) * 8)
		sealed[bit/8] ^= 1 << (bit % 8)
		if err := g.Open(out, sealed, nonce); err == nil {
			t.Fatalf("case %d: Open accepted a flipped bit %d", i, bit)
		}
		if !bytes.Equal(out, make([]byte, n)) {
			t.Fatalf("case %d: a failed Open left plaintext in dst", i)
		}

		macNonce := make([]byte, NonceSize)
		PutNonce(macNonce, rng.Uint64(), 1, true)
		tag := make([]byte, TagSize)
		g.SealMAC(tag, pt, macNonce)
		if err := g.OpenMAC(pt, tag, macNonce); err != nil {
			t.Fatalf("case %d: OpenMAC rejected its own tag: %v", i, err)
		}
		if bit = rng.Intn((n + TagSize) * 8); bit < n*8 {
			pt[bit/8] ^= 1 << (bit % 8)
		} else {
			tag[bit/8-n] ^= 1 << (bit % 8)
		}
		if err := g.OpenMAC(pt, tag, macNonce); err == nil {
			t.Fatalf("case %d: OpenMAC accepted a flipped bit %d", i, bit)
		}
	}
}

// TestPutNonceSeparatesDomains checks the nonce layout: address and
// counter big-endian, the counter word's top bit set only for GMAC
// nonces, so one (address, counter) yields distinct nonces for the two
// uses.
func TestPutNonceSeparatesDomains(t *testing.T) {
	enc, mac := make([]byte, NonceSize), make([]byte, NonceSize)
	PutNonce(enc, 0x0102030405060708, 9, false)
	PutNonce(mac, 0x0102030405060708, 9, true)
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 9}; !bytes.Equal(enc, want) {
		t.Fatalf("ciphertext nonce % x, want % x", enc, want)
	}
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0x80, 0, 0, 9}; !bytes.Equal(mac, want) {
		t.Fatalf("GMAC nonce % x, want % x", mac, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PutNonce accepted a counter that reaches the domain bit")
		}
	}()
	PutNonce(enc, 0, maxCounter+1, false)
}

// TestGCMOpenZeroAllocs pins the open path the secure engine runs per
// weight block: Open into a caller buffer and OpenMAC over a stored
// block allocate nothing.
func TestGCMOpenZeroAllocs(t *testing.T) {
	c, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGCM(c)
	const n = 4608 // VGG-16×0.25's most common kernel-row block
	nonce, macNonce := make([]byte, NonceSize), make([]byte, NonceSize)
	PutNonce(nonce, 1<<20, 1, false)
	PutNonce(macNonce, 1<<21, 1, true)
	sealed := make([]byte, n, n+TagSize)
	g.Seal(sealed, nonce)
	sealed = sealed[:n+TagSize]
	plain, tag, out := make([]byte, n), make([]byte, TagSize), make([]byte, n)
	g.SealMAC(tag, plain, macNonce)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := g.Open(out, sealed, nonce); err != nil {
			t.Fatal(err)
		}
		if err := g.OpenMAC(plain, tag, macNonce); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Open+OpenMAC allocate %v times per call, want 0", allocs)
	}
}
