// Package aes implements the AES-128 block cipher (FIPS-197) from first
// principles, plus the memory-encryption datapaths built on it. It is
// the functional model of the hardware encryption engines in the SEAL
// simulator: the timing side lives in internal/engine, while this package
// supplies the actual transformation applied to bus data, so the
// bus-snooper example can demonstrate real ciphertext on the memory bus.
//
// Two implementations of the block function sit behind one key:
//
//   - The memory datapaths run on the standard library's crypto/aes
//     block: AES-NI where the CPU has it, the standard library's
//     portable Go code where it does not. GCM seals and opens the
//     weight blocks of a memory image (one AES-GCM call per block, or
//     a GMAC tag for a block that bypasses encryption). CTR is the
//     per-line counter mode the timing model charges, and what
//     examples/busprotect and key derivation use; its counter-block
//     layout is this package's own, so its ciphertext is
//     byte-identical to the from-scratch cipher's.
//   - Cipher.Encrypt/Decrypt are the from-scratch 32-bit T-table form
//     (four 256-entry tables per direction fusing SubBytes/ShiftRows/
//     MixColumns, generated at init from the derived S-box), with the
//     original byte-oriented round functions kept as an unexported
//     reference they are tested against. They remain the FIPS-197
//     reference and the oracle the CTR's and GCM's keystream tests
//     compare against; direct mode is a timing model only
//     (internal/engine). They are NOT hardened against timing side
//     channels and must not be used as a general-purpose cipher outside
//     this simulator.
//
// One (line address, write counter) pair yields at most 4 KiB of
// keystream (256 blocks): the block index shares the counter word's top
// byte, so a longer stream would repeat its pad. The CTR entry points
// panic, before writing anything, on a stream or line beyond that.
package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

var (
	sbox    [256]byte
	invSbox [256]byte
)

// init derives the S-box from the multiplicative inverse in GF(2^8)
// followed by the affine transformation, per FIPS-197 §5.1.1, rather
// than embedding a 256-entry magic table.
func init() {
	// p, q walk multiplicative generator 3 and its inverse.
	p, q := byte(1), byte(1)
	for {
		// p *= 3 in GF(2^8)
		p = p ^ (p << 1) ^ mulBranch(p)
		// q /= 3 (multiply by inverse generator 0xf6)
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		// affine transformation of q (the inverse of p)
		xformed := q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4)
		sbox[p] = xformed ^ 0x63
		if p == 1 {
			break
		}
	}
	sbox[0] = 0x63
	for i := 0; i < 256; i++ {
		invSbox[sbox[i]] = byte(i)
	}
	buildTables()
}

// T-tables for the 32-bit round form. te0[x] packs the MixColumns
// contribution of S[x] to one output column as (2·S[x], S[x], S[x],
// 3·S[x]) from the most- to least-significant byte; te1..te3 are byte
// rotations of te0, so each state byte's whole SubBytes+MixColumns
// effect is one lookup and the round is 16 lookups + XORs. td0..td3 are
// the inverse tables over invSbox with the InvMixColumns coefficients
// (0e, 09, 0d, 0b).
var (
	te0, te1, te2, te3 [256]uint32
	td0, td1, td2, td3 [256]uint32
)

func buildTables() {
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s2^s)
		te0[i] = w
		te1[i] = w>>8 | w<<24
		te2[i] = w>>16 | w<<16
		te3[i] = w>>24 | w<<8
		is := invSbox[i]
		w = uint32(gmul(is, 0x0e))<<24 | uint32(gmul(is, 0x09))<<16 |
			uint32(gmul(is, 0x0d))<<8 | uint32(gmul(is, 0x0b))
		td0[i] = w
		td1[i] = w>>8 | w<<24
		td2[i] = w>>16 | w<<16
		td3[i] = w>>24 | w<<8
	}
}

func mulBranch(p byte) byte {
	if p&0x80 != 0 {
		return 0x1B
	}
	return 0
}

func rotl8(x byte, k uint) byte { return x<<k | x>>(8-k) }

// xtime multiplies by x (i.e. 2) in GF(2^8).
func xtime(b byte) byte { return b<<1 ^ mulBranch(b) }

// gmul multiplies two field elements (used by InvMixColumns).
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// Cipher is an expanded AES-128 key schedule, held twice: as the
// T-table round keys its own Encrypt/Decrypt use, and as the standard
// library block that NewCTR's keystream and NewGCM run on.
type Cipher struct {
	rk  [44]uint32   // 11 round keys × 4 words
	drk [44]uint32   // decryption schedule: rounds reversed, middle keys InvMixColumns'd
	std cipher.Block // crypto/aes schedule of the same key
}

// New expands a 16-byte key. It returns an error for any other length.
func New(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: invalid key size %d (want %d)", len(key), KeySize)
	}
	std, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	c := &Cipher{std: std}
	for i := 0; i < 4; i++ {
		c.rk[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1) << 24
	for i := 4; i < 44; i++ {
		t := c.rk[i-1]
		if i%4 == 0 {
			t = subWord(t<<8|t>>24) ^ rcon
			rcon = uint32(xtime(byte(rcon>>24))) << 24
		}
		c.rk[i] = c.rk[i-4] ^ t
	}
	// Equivalent inverse cipher (FIPS-197 §5.3.5): decryption walks the
	// round keys backwards, with InvMixColumns applied to every key
	// except the first and last so the decrypt round can use the same
	// fused table form as encryption. invSbox[sbox[b]] = b turns the td
	// tables into a pure InvMixColumns when indexed through sbox.
	for i := 0; i < 44; i += 4 {
		ei := 40 - i
		for j := 0; j < 4; j++ {
			x := c.rk[ei+j]
			if i > 0 && i < 40 {
				x = td0[sbox[x>>24]] ^ td1[sbox[x>>16&0xff]] ^
					td2[sbox[x>>8&0xff]] ^ td3[sbox[x&0xff]]
			}
			c.drk[i+j] = x
		}
	}
	return c, nil
}

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// state holds the 4×4 AES state in column-major order (FIPS-197 §3.4).
type state [16]byte

func (s *state) addRoundKey(rk []uint32) {
	for c := 0; c < 4; c++ {
		w := rk[c]
		s[4*c] ^= byte(w >> 24)
		s[4*c+1] ^= byte(w >> 16)
		s[4*c+2] ^= byte(w >> 8)
		s[4*c+3] ^= byte(w)
	}
}

func (s *state) subBytes() {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func (s *state) invSubBytes() {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
}

// shiftRows rotates row r left by r positions. With column-major state,
// row r is indices {r, r+4, r+8, r+12}.
func (s *state) shiftRows() {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func (s *state) invShiftRows() {
	s[1], s[5], s[9], s[13] = s[13], s[1], s[5], s[9]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[7], s[11], s[15], s[3]
}

func (s *state) mixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		all := a0 ^ a1 ^ a2 ^ a3
		s[4*c] = a0 ^ all ^ xtime(a0^a1)
		s[4*c+1] = a1 ^ all ^ xtime(a1^a2)
		s[4*c+2] = a2 ^ all ^ xtime(a2^a3)
		s[4*c+3] = a3 ^ all ^ xtime(a3^a0)
	}
}

func (s *state) invMixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09)
		s[4*c+1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d)
		s[4*c+2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b)
		s[4*c+3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e)
	}
}

// Encrypt transforms one 16-byte block dst = E_k(src). dst and src may
// overlap. The nine middle rounds fuse SubBytes/ShiftRows/MixColumns
// into four table lookups per column; the final round (no MixColumns)
// assembles S-box bytes directly.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: Encrypt block too short")
	}
	rk := &c.rk
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ rk[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ rk[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ rk[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ rk[3]
	k := 4
	for round := 1; round < 10; round++ {
		t0 := te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ rk[k]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ rk[k+1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ rk[k+2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ rk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	u0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 | uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	u1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 | uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	u2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 | uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	u3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 | uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	binary.BigEndian.PutUint32(dst[0:4], u0^rk[40])
	binary.BigEndian.PutUint32(dst[4:8], u1^rk[41])
	binary.BigEndian.PutUint32(dst[8:12], u2^rk[42])
	binary.BigEndian.PutUint32(dst[12:16], u3^rk[43])
}

// Decrypt transforms one 16-byte block dst = D_k(src). dst and src may
// overlap. It uses the equivalent inverse cipher over the drk schedule,
// so the round structure mirrors Encrypt with the td tables and the
// inverse (rightward) ShiftRows byte selection.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: Decrypt block too short")
	}
	rk := &c.drk
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ rk[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ rk[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ rk[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ rk[3]
	k := 4
	for round := 1; round < 10; round++ {
		t0 := td0[s0>>24] ^ td1[s3>>16&0xff] ^ td2[s2>>8&0xff] ^ td3[s1&0xff] ^ rk[k]
		t1 := td0[s1>>24] ^ td1[s0>>16&0xff] ^ td2[s3>>8&0xff] ^ td3[s2&0xff] ^ rk[k+1]
		t2 := td0[s2>>24] ^ td1[s1>>16&0xff] ^ td2[s0>>8&0xff] ^ td3[s3&0xff] ^ rk[k+2]
		t3 := td0[s3>>24] ^ td1[s2>>16&0xff] ^ td2[s1>>8&0xff] ^ td3[s0&0xff] ^ rk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	u0 := uint32(invSbox[s0>>24])<<24 | uint32(invSbox[s3>>16&0xff])<<16 | uint32(invSbox[s2>>8&0xff])<<8 | uint32(invSbox[s1&0xff])
	u1 := uint32(invSbox[s1>>24])<<24 | uint32(invSbox[s0>>16&0xff])<<16 | uint32(invSbox[s3>>8&0xff])<<8 | uint32(invSbox[s2&0xff])
	u2 := uint32(invSbox[s2>>24])<<24 | uint32(invSbox[s1>>16&0xff])<<16 | uint32(invSbox[s0>>8&0xff])<<8 | uint32(invSbox[s3&0xff])
	u3 := uint32(invSbox[s3>>24])<<24 | uint32(invSbox[s2>>16&0xff])<<16 | uint32(invSbox[s1>>8&0xff])<<8 | uint32(invSbox[s0&0xff])
	binary.BigEndian.PutUint32(dst[0:4], u0^rk[40])
	binary.BigEndian.PutUint32(dst[4:8], u1^rk[41])
	binary.BigEndian.PutUint32(dst[8:12], u2^rk[42])
	binary.BigEndian.PutUint32(dst[12:16], u3^rk[43])
}

// encryptRef is the original byte-oriented FIPS-197 round sequence,
// kept as the reference implementation the T-table path is tested
// against.
func (c *Cipher) encryptRef(dst, src []byte) {
	var s state
	copy(s[:], src[:BlockSize])
	s.addRoundKey(c.rk[0:4])
	for round := 1; round < 10; round++ {
		s.subBytes()
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(c.rk[4*round : 4*round+4])
	}
	s.subBytes()
	s.shiftRows()
	s.addRoundKey(c.rk[40:44])
	copy(dst[:BlockSize], s[:])
}

// decryptRef is the byte-oriented inverse cipher retained as the
// reference implementation for Decrypt.
func (c *Cipher) decryptRef(dst, src []byte) {
	var s state
	copy(s[:], src[:BlockSize])
	s.addRoundKey(c.rk[40:44])
	for round := 9; round >= 1; round-- {
		s.invShiftRows()
		s.invSubBytes()
		s.addRoundKey(c.rk[4*round : 4*round+4])
		s.invMixColumns()
	}
	s.invShiftRows()
	s.invSubBytes()
	s.addRoundKey(c.rk[0:4])
	copy(dst[:BlockSize], s[:])
}
