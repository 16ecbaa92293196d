package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"seal/internal/aes"
)

// TestImageHoldsOnlyWeights pins what the image backs with bytes: every
// weight region and scales header, and no feature-map or im2col region,
// which keep their addresses in the layout but are read by nobody.
// Snoop and Tamper find nothing outside the held regions.
func TestImageHoldsOnlyWeights(t *testing.T) {
	f, _ := buildImage(t, 0.5)
	q, _ := buildInt8Image(t, 0.5)
	for _, img := range []*MemoryImage{f, q} {
		for _, r := range img.Layout.Regions() {
			want := r.Kind == RegionWeights || strings.HasPrefix(r.Name, "qs:")
			if _, held := img.held[r]; held != want {
				t.Fatalf("%s: held %v, want %v", r.Name, held, want)
			}
			if got := img.Snoop(r.Base) != nil; got != want {
				t.Fatalf("%s: Snoop found bytes %v, want %v", r.Name, got, want)
			}
			if !want && (img.Tamper(r.Base, 1) || img.TamperTag(r.Base, 0, 1)) {
				t.Fatalf("%s: Tamper found a byte the image does not hold", r.Name)
			}
		}
	}
}

// TestImageNoncesUnique checks that no (key, nonce) pair serves two
// blocks of one image, float or int8, and that each nonce's domain bit
// marks exactly the blocks that bypass encryption.
func TestImageNoncesUnique(t *testing.T) {
	f, _ := buildImage(t, 0.5)
	q, _ := buildInt8Image(t, 0.5)
	for _, img := range []*MemoryImage{f, q} {
		seen := map[[aes.NonceSize]byte]string{}
		for r, s := range img.held {
			for i := range s.blocks() {
				var n [aes.NonceSize]byte
				copy(n[:], s.nonce(i))
				if prev, dup := seen[n]; dup {
					t.Fatalf("%s block %d reuses the nonce of %s", r.Name, i, prev)
				}
				seen[n] = r.Name
				if mac := n[8]&0x80 != 0; mac == r.Encrypted(uint64(i)*s.bb) {
					t.Fatalf("%s block %d: GMAC domain bit %v on a block encrypted %v", r.Name, i, mac, !mac)
				}
			}
		}
	}
}

// FuzzTamperFailsClosed XORs mask into one stored byte of a sealed
// float or int8 image, in a weight block, a scales header or a tag, and
// decrypts the whole region that holds it: a nonzero mask must give
// ErrTampered and leave dst zeroed (no plaintext released), mask 0 the
// original plaintext. block indexes every held block of both images in
// layer order; off indexes the block's stored bytes, then its tag.
func FuzzTamperFailsClosed(f *testing.F) {
	type heldBlock struct {
		img *MemoryImage
		r   *Region
		i   int
	}
	var blocks []heldBlock
	want := map[*Region][]byte{}
	fl, _ := buildImage(f, 0.5)
	q, _ := buildInt8Image(f, 0.5)
	for _, img := range []*MemoryImage{fl, q} {
		for _, lp := range img.Layout.Plan.Layers {
			for _, name := range []string{"w:", "qs:"} {
				r := img.Layout.Region(name + lp.Name)
				if r == nil {
					continue
				}
				s := img.held[r]
				for i := range s.blocks() {
					blocks = append(blocks, heldBlock{img, r, i})
				}
				want[r] = make([]byte, r.Size)
				if _, err := img.DecryptRegionInto(r, want[r]); err != nil {
					f.Fatal(err)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, block, off uint, mask byte) {
		b := blocks[block%uint(len(blocks))]
		bb := b.img.held[b.r].bb
		addr := b.r.Base + uint64(b.i)*bb
		pos := uint64(off % uint(bb+aes.TagSize))
		flip := func() {
			if pos < bb {
				b.img.Tamper(addr+pos, mask)
			} else {
				b.img.TamperTag(addr, int(pos-bb), mask)
			}
		}
		flip()
		defer flip()
		dst := bytes.Repeat([]byte{0xa5}, int(b.r.Size))
		_, err := b.img.DecryptRegionInto(b.r, dst)
		if mask == 0 {
			if err != nil || !bytes.Equal(dst, want[b.r]) {
				t.Fatalf("%s block %d: untouched region decrypts with error %v, plaintext intact %v",
					b.r.Name, b.i, err, bytes.Equal(dst, want[b.r]))
			}
			return
		}
		if !errors.Is(err, ErrTampered) {
			t.Fatalf("%s block %d byte %d ^ %#x: error %v, want ErrTampered", b.r.Name, b.i, pos, mask, err)
		}
		if !bytes.Equal(dst, make([]byte, len(dst))) {
			t.Fatalf("%s block %d byte %d ^ %#x: failed decrypt left bytes in dst", b.r.Name, b.i, pos, mask)
		}
	})
}
