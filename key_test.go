package seal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
)

func TestNewKeyValidation(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 32} {
		_, err := NewKey(make([]byte, n))
		if !errors.Is(err, ErrBadKey) {
			t.Fatalf("NewKey(len %d) error %v, want ErrBadKey", n, err)
		}
	}
	raw := []byte("0123456789abcdef")
	k, err := NewKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.Bytes(), raw) {
		t.Fatalf("Bytes() = %x, want %x", k.Bytes(), raw)
	}
	// Bytes must be a copy, not an alias into the key.
	k.Bytes()[0] ^= 0xff
	if !bytes.Equal(k.Bytes(), raw) {
		t.Fatal("Bytes() aliases the key material")
	}
}

func TestKeyStringRedacts(t *testing.T) {
	k := KeyFromString("super secret passphrase")
	if s := k.String(); strings.Contains(s, "secret") || len(s) > 40 {
		t.Fatalf("String() leaks or is odd: %q", s)
	}
}

func TestDeriveSubKeyDeterministicAndDistinct(t *testing.T) {
	master := KeyFromString("master")
	a1 := master.DeriveSubKey("tenant-a")
	a2 := master.DeriveSubKey("tenant-a")
	b := master.DeriveSubKey("tenant-b")
	if a1 != a2 {
		t.Fatal("DeriveSubKey not deterministic")
	}
	if a1 == b {
		t.Fatal("distinct tenants derived the same key")
	}
	other := KeyFromString("other master").DeriveSubKey("tenant-a")
	if other == a1 {
		t.Fatal("distinct masters derived the same tenant key")
	}
	if a1 == master || b == master {
		t.Fatal("sub-key equals master")
	}
}

// Domain separation: a passphrase key and a tenant derivation of the
// zero key must differ even for equal strings, and long tenant names
// must be absorbed beyond the first block.
func TestKeyDerivationDomains(t *testing.T) {
	var zero Key
	if KeyFromString("x") == zero.DeriveSubKey("x") {
		t.Fatal("passphrase and tenant derivations collide")
	}
	long := strings.Repeat("tenant-name-", 10)
	if zero.DeriveSubKey(long) == zero.DeriveSubKey(long[:16]) {
		t.Fatal("derivation ignores input beyond one block")
	}
	if zero.DeriveSubKey("ab") == zero.DeriveSubKey("a") {
		t.Fatal("length prefix not separating prefixes")
	}
}

// TestDeriveSubKeyEdgeCases sweeps the awkward tenant names — empty,
// exactly one block, spanning several blocks, embedded NUL bytes,
// shared prefixes and zero-padding look-alikes — and requires every
// derivation to be deterministic and every pair of distinct names to
// yield distinct sub-keys. The length-prefixed CBC-MAC makes the padded
// message injective, so e.g. "a" and "a\x00" must not collide even
// though they zero-pad to the same block content.
func TestDeriveSubKeyEdgeCases(t *testing.T) {
	master := KeyFromString("edge-case master")
	tenants := []string{
		"",
		"a",
		"a\x00",
		"a\x00\x00",
		"\x00",
		"\x00a",
		"ab",
		"0123456789abcdef",            // exactly one block
		"0123456789abcdef\x00",        // one block + padding look-alike
		"0123456789abcde",             // one byte short of a block
		"0123456789abcdefg",           // one byte past a block
		strings.Repeat("tenant-", 16), // 7 blocks
		strings.Repeat("tenant-", 16) + "x",
		"tenant-a",
		"tenant-a/shard-0",
		"tenant-a/shard-1",
	}
	keys := make([]Key, len(tenants))
	for i, name := range tenants {
		keys[i] = master.DeriveSubKey(name)
		if again := master.DeriveSubKey(name); again != keys[i] {
			t.Fatalf("DeriveSubKey(%q) not deterministic", name)
		}
		if keys[i] == master {
			t.Fatalf("DeriveSubKey(%q) returned the master key", name)
		}
		var zero Key
		if keys[i] == zero {
			t.Fatalf("DeriveSubKey(%q) returned the zero key", name)
		}
	}
	for i := range tenants {
		for j := i + 1; j < len(tenants); j++ {
			if keys[i] == keys[j] {
				t.Fatalf("tenants %q and %q derived the same sub-key", tenants[i], tenants[j])
			}
		}
	}
}

func TestArchByNameUnknownWrapsSentinel(t *testing.T) {
	if _, err := ArchByName("lenet"); !errors.Is(err, ErrUnknownArch) {
		t.Fatalf("ArchByName error %v, want ErrUnknownArch", err)
	}
	if _, err := PrepareByName("lenet", 1); !errors.Is(err, ErrUnknownArch) {
		t.Fatalf("PrepareByName error %v, want ErrUnknownArch", err)
	}
	if _, err := ArchByName("vgg16"); err != nil {
		t.Fatal(err)
	}
}

// TestKeyDerivationKnownAnswer pins the derivation's output bytes,
// generated when it ran on the T-table cipher: moving it to another AES
// implementation must not change any derived key. The tenant names
// cover an empty, a one-block and a three-block CBC-MAC message.
func TestKeyDerivationKnownAnswer(t *testing.T) {
	k := KeyFromString("sealbench")
	if got, want := hex.EncodeToString(k.Bytes()), "97d0effb815dce92ded9f055efd6d271"; got != want {
		t.Fatalf(`KeyFromString("sealbench") = %s, want %s`, got, want)
	}
	for _, tc := range []struct{ tenant, want string }{
		{"acme", "2889017aa45d4c9c359ffef065156907"},
		{"", "a2fd8ce0cee22c506d1160ac9b1fa408"},
		{strings.Repeat("tenant-name-", 3), "fbdfbd36d8b5048f03cb510acef38a97"},
	} {
		if got := hex.EncodeToString(k.DeriveSubKey(tc.tenant).Bytes()); got != tc.want {
			t.Errorf("DeriveSubKey(%q) = %s, want %s", tc.tenant, got, tc.want)
		}
	}
}
