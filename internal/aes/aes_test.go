package aes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"seal/internal/prng"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestFIPS197AppendixB checks the worked example from FIPS-197 Appendix B.
func TestFIPS197AppendixB(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := unhex(t, "3243f6a8885a308d313198a2e0370734")
	want := unhex(t, "3925841d02dc09fbdc118597196a0b32")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("encrypt = %x, want %x", got, want)
	}
	dec := make([]byte, 16)
	c.Decrypt(dec, got)
	if !bytes.Equal(dec, pt) {
		t.Fatalf("decrypt = %x, want %x", dec, pt)
	}
}

// TestFIPS197AppendixC1 checks the AES-128 known-answer vector from
// FIPS-197 Appendix C.1.
func TestFIPS197AppendixC1(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	pt := unhex(t, "00112233445566778899aabbccddeeff")
	want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("encrypt = %x, want %x", got, want)
	}
}

// TestSP80038AVectors checks ECB-mode known answers from NIST SP 800-38A
// (F.1.1, first two blocks), exercising the cipher with a second key.
func TestSP80038AVectors(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ pt, ct string }{
		{"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
		{"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
		{"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
		{"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"},
	}
	got := make([]byte, 16)
	for i, tc := range cases {
		c.Encrypt(got, unhex(t, tc.pt))
		if !bytes.Equal(got, unhex(t, tc.ct)) {
			t.Fatalf("block %d: got %x, want %s", i, got, tc.ct)
		}
	}
}

// TestFIPS197AppendixC1Decrypt checks the decrypt direction of the
// AES-128 known-answer vector from FIPS-197 Appendix C.1.
func TestFIPS197AppendixC1Decrypt(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	ct := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	want := unhex(t, "00112233445566778899aabbccddeeff")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Decrypt(got, ct)
	if !bytes.Equal(got, want) {
		t.Fatalf("decrypt = %x, want %x", got, want)
	}
}

// TestSP80038AVectorsDecrypt checks the ECB-AES128.Decrypt known
// answers from NIST SP 800-38A F.1.2 (same key and blocks as F.1.1,
// run through the inverse cipher).
func TestSP80038AVectorsDecrypt(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ pt, ct string }{
		{"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
		{"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
		{"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
		{"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"},
	}
	got := make([]byte, 16)
	for i, tc := range cases {
		c.Decrypt(got, unhex(t, tc.ct))
		if !bytes.Equal(got, unhex(t, tc.pt)) {
			t.Fatalf("block %d: got %x, want %s", i, got, tc.pt)
		}
	}
}

// TestDecryptInPlace mirrors TestEncryptInPlace for the inverse cipher.
func TestDecryptInPlace(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	c, _ := New(key)
	buf := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	c.Decrypt(buf, buf)
	want := unhex(t, "00112233445566778899aabbccddeeff")
	if !bytes.Equal(buf, want) {
		t.Fatalf("in-place decrypt = %x, want %x", buf, want)
	}
}

// TestTTableMatchesReference cross-checks the T-table cipher against
// the retained byte-oriented reference implementation on 1k random
// (key, block) pairs in both directions. Any divergence in table
// generation, the fused round form, or the inverse key schedule shows
// up here before it can silently change simulator ciphertext.
func TestTTableMatchesReference(t *testing.T) {
	r := prng.New(0xae5)
	key := make([]byte, KeySize)
	blk := make([]byte, BlockSize)
	fast := make([]byte, BlockSize)
	ref := make([]byte, BlockSize)
	for trial := 0; trial < 1000; trial++ {
		for i := range key {
			key[i] = byte(r.Uint64())
		}
		for i := range blk {
			blk[i] = byte(r.Uint64())
		}
		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		c.Encrypt(fast, blk)
		c.encryptRef(ref, blk)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("trial %d: encrypt %x, reference %x", trial, fast, ref)
		}
		c.Decrypt(fast, blk)
		c.decryptRef(ref, blk)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("trial %d: decrypt %x, reference %x", trial, fast, ref)
		}
	}
}

func TestNewRejectsBadKeySizes(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 24, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted", n)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	check := func(keySeed, ptSeed uint64) bool {
		r := prng.New(keySeed)
		key := make([]byte, 16)
		for i := range key {
			key[i] = byte(r.Uint64())
		}
		r2 := prng.New(ptSeed)
		pt := make([]byte, 16)
		for i := range pt {
			pt[i] = byte(r2.Uint64())
		}
		c, err := New(key)
		if err != nil {
			return false
		}
		ct := make([]byte, 16)
		c.Encrypt(ct, pt)
		dec := make([]byte, 16)
		c.Decrypt(dec, ct)
		return bytes.Equal(dec, pt) && !bytes.Equal(ct, pt)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptInPlace(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f")
	c, _ := New(key)
	buf := unhex(t, "00112233445566778899aabbccddeeff")
	c.Encrypt(buf, buf)
	want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	if !bytes.Equal(buf, want) {
		t.Fatalf("in-place encrypt = %x, want %x", buf, want)
	}
}

func TestSboxIsPermutationWithKnownEntries(t *testing.T) {
	seen := map[byte]bool{}
	for i := 0; i < 256; i++ {
		if seen[sbox[i]] {
			t.Fatalf("sbox has duplicate value %#x", sbox[i])
		}
		seen[sbox[i]] = true
		if invSbox[sbox[i]] != byte(i) {
			t.Fatalf("invSbox mismatch at %d", i)
		}
	}
	// spot-check the canonical entries
	if sbox[0x00] != 0x63 || sbox[0x01] != 0x7c || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Fatalf("sbox entries wrong: %#x %#x %#x %#x", sbox[0x00], sbox[0x01], sbox[0x53], sbox[0xff])
	}
}

func TestCTRPadDeterministicAndAddressSensitive(t *testing.T) {
	c, _ := New(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	ctr := NewCTR(c)
	p1 := ctr.Pad(0x1000, 1, 64)
	p2 := ctr.Pad(0x1000, 1, 64)
	if !bytes.Equal(p1, p2) {
		t.Fatal("pad not deterministic")
	}
	if bytes.Equal(p1, ctr.Pad(0x1040, 1, 64)) {
		t.Fatal("pad identical across addresses")
	}
	if bytes.Equal(p1, ctr.Pad(0x1000, 2, 64)) {
		t.Fatal("pad identical across counters")
	}
	if len(p1) != 64 {
		t.Fatalf("pad length %d", len(p1))
	}
	// Known answer, generated with the T-table backend: a backend swap
	// must not change one keystream byte.
	want := unhex(t, "291b5eeab8681b81b62310db6741e9cf0df2000738637d5ffad9919a3a6a8ae6"+
		"bdf967f9d1322fd92eb95ab6a0430229656e0e289fd96cb1cf36ffc7cba90f4b")
	if !bytes.Equal(p1, want) {
		t.Fatalf("pad %x, want %x", p1, want)
	}
	// multi-block pads must not repeat 16-byte blocks
	if bytes.Equal(p1[:16], p1[16:32]) {
		t.Fatal("pad blocks repeat")
	}
}

func TestCTRXORIsInvolution(t *testing.T) {
	c, _ := New(unhex(t, "000102030405060708090a0b0c0d0e0f"))
	ctr := NewCTR(c)
	src := []byte("memory encryption for accelerators: 64-byte cache line payload!")
	enc := make([]byte, len(src))
	ctr.XORKeyStream(enc, src, 0xdead0000, 7)
	if bytes.Equal(enc, src) {
		t.Fatal("ciphertext equals plaintext")
	}
	dec := make([]byte, len(enc))
	ctr.XORKeyStream(dec, enc, 0xdead0000, 7)
	if !bytes.Equal(dec, src) {
		t.Fatal("CTR round-trip failed")
	}
}

// TestShortDstPanicsUpFront checks that XORKeyStream rejects a
// destination shorter than the source before writing anything — the
// documented contract used to be unchecked, and a short dst panicked
// mid-stream after partial writes.
func TestShortDstPanicsUpFront(t *testing.T) {
	c, _ := New(make([]byte, 16))
	ctr := NewCTR(c)
	src := make([]byte, 64)
	dst := make([]byte, len(src)-1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short dst accepted")
			}
		}()
		ctr.XORKeyStream(dst, src, 0x1000, 1)
	}()
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Error("short dst partially written before panic")
	}
}

// TestXORKeyStreamInPlace checks the documented aliasing contract: the
// fused generate-into-dst path must load source words before the
// keystream overwrites them.
func TestXORKeyStreamInPlace(t *testing.T) {
	c, _ := New(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	ctr := NewCTR(c)
	buf := make([]byte, 64+5) // exercises the partial tail block too
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	want := make([]byte, len(buf))
	ctr.XORKeyStream(want, buf, 0xbeef, 3)
	ctr.XORKeyStream(buf, buf, 0xbeef, 3)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place XORKeyStream differs from out-of-place")
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c, _ := New(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkDecryptBlock(b *testing.B) {
	c, _ := New(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Decrypt(buf, buf)
	}
}

func BenchmarkCTRPad64(b *testing.B) {
	c, _ := New(make([]byte, 16))
	ctr := NewCTR(c)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		_ = ctr.Pad(uint64(i)<<6, uint64(i), 64)
	}
}
