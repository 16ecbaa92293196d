package seal

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"seal/internal/aes"
)

// KeySize is the byte length of a sealing key (AES-128).
const KeySize = aes.KeySize

// Key is a validated 128-bit sealing key. The zero Key is usable (any
// 16 bytes key AES), but deployments should construct keys explicitly
// with NewKey or KeyFromString, hand each tenant a DeriveSubKey result
// so no two tenants ever share keystream, and seal each image under a
// key of its own (see WithKey).
//
// Key replaces the raw []byte keys of the original five-step API: a
// Key cannot have the wrong length, so the one runtime failure mode of
// core.NewMemoryImage's raw-slice path (which remains available as the
// low-level API, but is deprecated for callers of this package) is
// gone by construction.
type Key struct {
	b [KeySize]byte
}

// NewKey validates and copies a raw 16-byte key. It wraps ErrBadKey for
// any other length.
func NewKey(b []byte) (Key, error) {
	if len(b) != KeySize {
		return Key{}, fmt.Errorf("%w: length %d, want %d", ErrBadKey, len(b), KeySize)
	}
	var k Key
	copy(k.b[:], b)
	return k, nil
}

// KeyFromString derives a Key from an arbitrary passphrase-style
// string, so CLIs, examples and tests never ship hard-coded 16-byte
// literals. The derivation is the same keyed AES construction as
// DeriveSubKey (under the zero master key, with a distinct
// domain-separation label), deterministic across runs and platforms.
//
// It is for demos and tests only: the derivation is fast, unsalted and
// publicly computable (the master key is the all-zero constant), so the
// resulting Key has exactly the entropy of the passphrase and a
// low-entropy passphrase is trivially brute-forceable offline.
// Deployments that seal real weights — anything rooting a tenant key
// hierarchy, like sealserve — must use NewKey with 16 random bytes
// (e.g. `openssl rand -hex 16` delivered via flag, env or file).
func KeyFromString(s string) Key {
	var zero Key
	return zero.derive(labelPassphrase, s)
}

// Bytes returns a copy of the raw key material.
func (k Key) Bytes() []byte {
	out := make([]byte, KeySize)
	copy(out, k.b[:])
	return out
}

// String redacts the key material so a Key can be logged safely.
func (k Key) String() string { return "seal.Key(redacted)" }

// Domain-separation labels for the keyed derivation.
const (
	labelTenant     = 'T'
	labelPassphrase = 'P'
)

// DeriveSubKey derives the tenant's sub-key from k. The derivation is a
// PRF: a CBC-MAC under k absorbs the length-prefixed, domain-separated
// tenant name, and the MAC value then selects the (address, counter)
// pair of one counter-mode keystream block under k — the same per-line
// pad datapath the memory encryption uses — whose 16 bytes are the
// sub-key. Distinct tenant names yield independent keys; without k, no
// sub-key reveals anything about another (each is one AES-CTR pad
// under k). Both steps run on the standard library's AES, not on the
// from-scratch table cipher of internal/aes: sealserve derives a key
// from every tenant name a client registers.
func (k Key) DeriveSubKey(tenant string) Key {
	return k.derive(labelTenant, tenant)
}

func (k Key) derive(label byte, s string) Key {
	c, err := aes.New(k.b[:])
	if err != nil {
		// A Key is 16 bytes by construction.
		panic(err)
	}
	block, err := stdaes.NewCipher(k.b[:])
	if err != nil {
		panic(err)
	}
	// CBC-MAC over label || len(s) || s, zero-padded to whole blocks: the
	// last block of a zero-IV CBC encryption. The length prefix makes the
	// padded message injective.
	msg := make([]byte, KeySize+(len(s)+KeySize-1)/KeySize*KeySize)
	msg[0] = label
	binary.BigEndian.PutUint64(msg[1:9], uint64(len(s)))
	copy(msg[KeySize:], s)
	cipher.NewCBCEncrypter(block, make([]byte, KeySize)).CryptBlocks(msg, msg)
	mac := msg[len(msg)-KeySize:]
	// Expand through the CTR pad path keyed by k.
	pad := aes.NewCTR(c).Pad(
		binary.BigEndian.Uint64(mac[0:8]),
		binary.BigEndian.Uint64(mac[8:16]),
		KeySize,
	)
	var out Key
	copy(out.b[:], pad)
	return out
}
