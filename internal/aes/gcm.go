package aes

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// Sizes of a sealed memory block's nonce and tag.
const (
	NonceSize = 12
	TagSize   = 16
)

// macDomain marks a nonce's counter word as a GMAC-only nonce. A
// ciphertext block's nonce never has it set, so no nonce serves both a
// GCM encryption and a GMAC tag under one key.
const macDomain = 1 << 31

// maxCounter is the largest write counter a block nonce encodes: the
// counter word's top bit is the domain bit.
const maxCounter = macDomain - 1

// GCM seals memory blocks with AES-GCM (NIST SP 800-38D) on the same
// standard-library block the CTR runs on. A ciphertext block is
// encrypted and tagged; a block that bypasses encryption keeps its
// plaintext and gets a GMAC tag (GCM with the block as additional data
// and no plaintext), so flipping a stored bit of either kind fails
// verification. Both take a nonce from PutNonce.
//
// GCM holds no mutable state: it is safe for concurrent use, and
// neither Open nor OpenMAC allocates.
type GCM struct {
	aead cipher.AEAD
}

// NewGCM wraps an expanded key for sealing memory blocks.
func NewGCM(c *Cipher) *GCM {
	aead, err := cipher.NewGCM(c.std)
	if err != nil {
		// NewGCM fails only for a block size other than 16 bytes.
		panic(err)
	}
	return &GCM{aead: aead}
}

// PutNonce writes the nonce of the memory block at addr, written
// counter times, into dst[:NonceSize]: addr ‖ counter as big-endian
// words, with the counter word's top bit set for a GMAC-only (mac)
// block. Like the CTR pad, the nonce depends only on address and
// counter, never on data. counter must be at most maxCounter.
func PutNonce(dst []byte, addr uint64, counter uint32, mac bool) {
	if counter > maxCounter {
		panic(fmt.Sprintf("aes: write counter %d beyond %d", counter, maxCounter))
	}
	if mac {
		counter |= macDomain
	}
	binary.BigEndian.PutUint64(dst[0:8], addr)
	binary.BigEndian.PutUint32(dst[8:12], counter)
}

// Seal encrypts block in place and writes its tag right after it, so
// block's backing array must hold len(block)+TagSize bytes.
func (g *GCM) Seal(block, nonce []byte) {
	if cap(block) < len(block)+TagSize {
		panic("aes: Seal needs TagSize bytes of capacity after the block")
	}
	g.aead.Seal(block[:0], nonce, block, nil)
}

// SealMAC writes the GMAC tag of a plaintext block into tag[:TagSize].
func (g *GCM) SealMAC(tag, block, nonce []byte) {
	g.aead.Seal(tag[:0], nonce, nil, block)
}

// Open verifies sealed (ciphertext ‖ tag, as Seal leaves it) and
// decrypts it into dst[:len(sealed)-TagSize]. On a mismatch it returns
// an error and leaves those bytes of dst zeroed. dst must not overlap
// sealed.
func (g *GCM) Open(dst, sealed, nonce []byte) error {
	if len(dst) < len(sealed)-TagSize {
		panic("aes: Open dst shorter than the sealed block")
	}
	_, err := g.aead.Open(dst[:0], nonce, sealed, nil)
	return err
}

// OpenMAC verifies a plaintext block against its GMAC tag.
func (g *GCM) OpenMAC(block, tag, nonce []byte) error {
	_, err := g.aead.Open(nil, nonce, tag[:TagSize], block)
	return err
}
