package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"
	"time"

	"seal"
	"seal/internal/serve"
)

const validHexKey = "00112233445566778899aabbccddeeff"

func TestResolveMasterKey(t *testing.T) {
	valid, _ := hex.DecodeString(validHexKey)
	devKey := seal.KeyFromString("sealserve dev master key")
	for _, tc := range []struct {
		name     string
		hexKey   string
		allowDev bool
		want     []byte // nil: rejected
		badKey   bool   // the rejection wraps seal.ErrBadKey
	}{
		{"valid", validHexKey, false, valid, false},
		{"valid uppercase", "00112233445566778899AABBCCDDEEFF", false, valid, false},
		{"explicit key wins over dev key", validHexKey, true, valid, false},
		{"dev key", "", true, devKey.Bytes(), false},
		{"missing", "", false, nil, false},
		{"all-zero key", "00000000000000000000000000000000", false, nil, false},
		{"all-zero key with dev key allowed", "00000000000000000000000000000000", true, nil, false},
		{"15 bytes", validHexKey[:30], false, nil, true},
		{"17 bytes", validHexKey + "00", false, nil, true},
		{"one zero byte", "00", false, nil, true},
		{"odd length", validHexKey[:31], false, nil, false},
		{"not hex", "zz" + validHexKey[2:], false, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key, err := resolveMasterKey(tc.hexKey, tc.allowDev)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("accepted, want an error")
				}
				if got := errors.Is(err, seal.ErrBadKey); got != tc.badKey {
					t.Fatalf("errors.Is(%v, ErrBadKey) = %v, want %v", err, got, tc.badKey)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(key.Bytes(), tc.want) {
				t.Fatalf("key %x, want %x", key.Bytes(), tc.want)
			}
		})
	}
}

func TestCheckScale(t *testing.T) {
	const (
		scale   = 0.25
		queue   = serve.DefaultQueueDepth
		maxB    = serve.DefaultMaxBatch
		window  = serve.DefaultBatchWindow
		workers = 0
	)
	for _, tc := range []struct {
		name    string
		scale   float64
		queue   int
		maxB    int
		window  time.Duration
		workers int
		ok      bool
	}{
		{"defaults", scale, queue, maxB, window, workers, true},
		{"full width", 0, queue, maxB, window, workers, true},
		{"unit scale", 1, queue, maxB, window, workers, true},
		{"negative scale", -1, queue, maxB, window, workers, false},
		{"NaN scale", math.NaN(), queue, maxB, window, workers, false},
		{"infinite scale", math.Inf(1), queue, maxB, window, workers, false},
		{"queue 1", scale, 1, maxB, window, workers, true},
		{"queue 0", scale, 0, maxB, window, workers, false},
		{"negative queue", scale, -1, maxB, window, workers, false},
		{"max batch 1", scale, queue, 1, window, workers, true},
		{"max batch 0", scale, queue, 0, window, workers, false},
		{"negative max batch", scale, queue, -1, window, workers, false},
		{"no batch window", scale, queue, maxB, 0, workers, true},
		{"negative batch window", scale, queue, maxB, -time.Millisecond, workers, false},
		{"two workers", scale, queue, maxB, window, 2, true},
		{"negative workers", scale, queue, maxB, window, -1, false},
	} {
		err := checkFlags(tc.scale, tc.queue, tc.maxB, tc.window, tc.workers)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzResolveMasterKey checks the -master-key parser on arbitrary
// input: it accepts exactly the 32-hex-character encodings of a nonzero
// 16-byte key (and, when allowed, the dev key for an empty flag), and
// the key it returns is the decoded bytes.
func FuzzResolveMasterKey(f *testing.F) {
	devKey := seal.KeyFromString("sealserve dev master key")
	f.Fuzz(func(t *testing.T, hexKey string, allowDev bool) {
		key, err := resolveMasterKey(hexKey, allowDev)
		if hexKey == "" {
			if allowDev != (err == nil) || (err == nil && key != devKey) {
				t.Fatalf("empty flag, allowDev %v: key %x, err %v", allowDev, key.Bytes(), err)
			}
			return
		}
		raw, decErr := hex.DecodeString(hexKey)
		wantOK := decErr == nil && len(raw) == seal.KeySize && !bytes.Equal(raw, make([]byte, seal.KeySize))
		if wantOK != (err == nil) {
			t.Fatalf("resolveMasterKey(%q) err = %v, want accepted = %v", hexKey, err, wantOK)
		}
		if err == nil && !bytes.Equal(key.Bytes(), raw) {
			t.Fatalf("resolveMasterKey(%q) = %x, want %x", hexKey, key.Bytes(), raw)
		}
		if err != nil && key != (seal.Key{}) {
			t.Fatalf("rejected input %q still returned key material", hexKey)
		}
	})
}
