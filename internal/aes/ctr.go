package aes

import (
	"crypto/cipher"
	"encoding/binary"
)

// maxStreamBlocks is the longest keystream one (line address, counter)
// pair yields. The block index is XORed into the counter word's top
// byte, so block 256 would reuse block 0's pad.
const maxStreamBlocks = 256

// CTR implements counter-mode keystream generation as used by
// counter-mode memory encryption: the one-time pad for a cache line is
// AES(K, address ⊕ counter), and data is XORed with the pad. Computing
// the pad needs only the address and counter — not the data — which is
// why counter-mode memory encryption can overlap pad generation with the
// DRAM access (paper §II-B, [24]).
//
// Keystream block blk of the stream for (lineAddr, counter) is the
// encryption of the counter block lineAddr ‖ counter⊕blk<<56 (two
// big-endian words), for blk < 256. The block function is the standard
// library's crypto/aes; this layout, not the library's CTR mode, fixes
// the ciphertext bytes.
type CTR struct {
	b cipher.Block
}

// NewCTR wraps an expanded key for counter-mode use.
func NewCTR(c *Cipher) *CTR { return &CTR{b: c.std} }

// ctrBatch is how many keystream blocks xorLineBlocks stages before it
// encrypts the first of them. crypto/aes reads a counter block with one
// 16-byte load, and a load spanning two just-written 8-byte stores
// cannot be forwarded from the store buffer: it waits for both stores to
// reach the cache. Writing a batch's counter blocks first lets them land
// while the batch's earlier blocks encrypt.
const ctrBatch = 8

// Pad computes the one-time pad for a memory block identified by its
// line address and per-line write counter. n is the pad length in bytes,
// at most 4 KiB; successive blocks increment the block index field.
func (ct *CTR) Pad(lineAddr uint64, counter uint64, n int) []byte {
	if n > maxStreamBlocks*BlockSize {
		panic("aes: Pad longer than one counter's 4 KiB keystream")
	}
	// The pad is the keystream XORed onto zeros. Allocating whole blocks
	// keeps a partial tail off XORKeyStream's allocating tail path.
	pad := make([]byte, (n+BlockSize-1)/BlockSize*BlockSize)
	ct.XORKeyStream(pad, pad, lineAddr, counter)
	return pad[:n]
}

// XORKeyStream encrypts (or decrypts — the operation is an involution)
// src into dst using the pad for (lineAddr, counter). len(src) must be
// at most 4 KiB and len(dst) at least len(src); dst and src may be the
// same slice. Pad generation and the XOR are fused per block, so long
// streams never materialize a second full-length pad buffer.
func (ct *CTR) XORKeyStream(dst, src []byte, lineAddr, counter uint64) {
	n := len(src)
	if len(dst) < n {
		panic("aes: XORKeyStream dst shorter than src")
	}
	if n > maxStreamBlocks*BlockSize {
		panic("aes: XORKeyStream longer than one counter's 4 KiB keystream")
	}
	// The whole blocks are one line of the bulk path.
	whole := n / BlockSize * BlockSize
	if whole > 0 {
		ct.XORKeyStreamLines(dst[:whole], src[:whole], lineAddr, counter, whole)
	}
	if whole < n {
		// A partial tail has no whole block of dst to build its counter
		// block in, and a stack scratch would escape through the
		// cipher.Block interface, so only calls with a partial tail
		// allocate.
		blk := whole / BlockSize
		tail := make([]byte, BlockSize)
		copy(tail, src[whole:])
		ct.xorLineBlocks(tail, tail, lineAddr, counter, 0, maxStreamBlocks, blk, blk+1)
		copy(dst[whole:n], tail)
	}
}

// XORKeyStreamLines applies the per-line counter-mode keystream to a
// run of consecutive whole memory lines: line i of src (lineBytes bytes
// starting at offset i*lineBytes) is XORed with the pad for line address
// baseAddr + i*lineBytes under the shared write counter, exactly as
// len(src)/lineBytes separate XORKeyStream calls would produce — the
// block-index field restarts at every line boundary — but as one flat
// run of blocks. len(src) must be a multiple of lineBytes, and
// lineBytes a multiple of the AES block size and at most 4 KiB; dst and
// src may alias exactly. The operation is an involution (encrypt ==
// decrypt).
func (ct *CTR) XORKeyStreamLines(dst, src []byte, baseAddr, counter uint64, lineBytes int) {
	n := len(src)
	if len(dst) < n {
		panic("aes: XORKeyStreamLines dst shorter than src")
	}
	if lineBytes <= 0 || lineBytes%BlockSize != 0 {
		panic("aes: XORKeyStreamLines lineBytes must be a positive multiple of the block size")
	}
	if lineBytes > maxStreamBlocks*BlockSize {
		panic("aes: XORKeyStreamLines line longer than one counter's 4 KiB keystream")
	}
	if n%lineBytes != 0 {
		panic("aes: XORKeyStreamLines src must be whole lines")
	}
	ct.xorLineBlocks(dst[:n], src, baseAddr, counter, uint64(lineBytes), lineBytes/BlockSize, 0, n/BlockSize)
}

// xorLineBlocks XORs keystream blocks [lo, hi) of a whole-line run onto
// src, into dst; dst and src hold exactly those blocks and may alias
// exactly. Block b lives in line b/bpl at intra-line index b%bpl. Each
// counter block is built in dst and encrypted in place (crypto/aes
// allows exact aliasing): a stack buffer handed to the cipher.Block
// interface would escape and allocate on every call.
func (ct *CTR) xorLineBlocks(dst, src []byte, baseAddr, counter, lineBytes uint64, bpl, lo, hi int) {
	var saved [2 * ctrBatch]uint64
	for b0 := lo; b0 < hi; b0 += ctrBatch {
		b1 := min(b0+ctrBatch, hi)
		for blk := b0; blk < b1; blk++ {
			off, j := (blk-lo)*BlockSize, 2*(blk-b0)
			saved[j] = binary.LittleEndian.Uint64(src[off:])
			saved[j+1] = binary.LittleEndian.Uint64(src[off+8:])
			binary.BigEndian.PutUint64(dst[off:], baseAddr+uint64(blk/bpl)*lineBytes)
			binary.BigEndian.PutUint64(dst[off+8:], counter^uint64(blk%bpl)<<56)
		}
		for blk := b0; blk < b1; blk++ {
			off, j := (blk-lo)*BlockSize, 2*(blk-b0)
			d := dst[off : off+BlockSize]
			ct.b.Encrypt(d, d)
			binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(d[0:8])^saved[j])
			binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(d[8:16])^saved[j+1])
		}
	}
}
