package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"seal/internal/models"
	"seal/internal/parallel"
)

// TestDecryptRegionIntoMatchesReadWeight checks that the bulk region
// decrypt reproduces, byte for byte, the weights the per-block
// ReadWeight path recovers, across mixed, all-plaintext and
// all-ciphertext regions.
func TestDecryptRegionIntoMatchesReadWeight(t *testing.T) {
	for _, ratio := range []float64{0, 0.5, 1.0} {
		img, _ := buildImage(t, ratio)
		for li, lp := range img.Layout.Plan.Layers {
			r := img.Layout.Region("w:" + lp.Name)
			dst := make([]byte, r.Size)
			encBytes, err := img.DecryptRegionInto(r, dst)
			if err != nil {
				t.Fatal(err)
			}
			if want := int(r.EncryptedBytes()); encBytes != want {
				t.Fatalf("ratio %v %s: decrypted %d ciphertext bytes, want %d", ratio, lp.Name, encBytes, want)
			}
			kk := lp.Spec.K * lp.Spec.K
			if lp.Spec.Kind == models.KindFC {
				kk = 1
			}
			for c := 0; c < lp.Spec.InC; c++ {
				for _, o := range []int{0, lp.Spec.OutC - 1} {
					for k := 0; k < kk; k += kk { // k=0 keeps FC valid; conv checks k=0
						want, err := img.ReadWeight(li, o, c, k)
						if err != nil {
							t.Fatal(err)
						}
						off := uint64(c)*r.BlockBytes + uint64(o*kk+k)*4
						got := math.Float32frombits(binary.LittleEndian.Uint32(dst[off:]))
						if got != want {
							t.Fatalf("ratio %v %s (%d,%d,%d): bulk %v, ReadWeight %v", ratio, lp.Name, o, c, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDecryptRangeIntoPanelSlices decrypts a region in whole-block
// panels and checks the concatenation equals the whole-region decrypt —
// the exact access pattern of the streaming inference engine.
func TestDecryptRangeIntoPanelSlices(t *testing.T) {
	img, _ := buildImage(t, 0.5)
	lp := img.Layout.Plan.Layers[2] // a mixed SE layer
	r := img.Layout.Region("w:" + lp.Name)
	whole := make([]byte, r.Size)
	if _, err := img.DecryptRegionInto(r, whole); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, r.Size)
	step := 3 * r.BlockBytes // panels of three kernel-row blocks
	for off := uint64(0); off < r.Size; off += step {
		n := step
		if off+n > r.Size {
			n = r.Size - off
		}
		if _, err := img.DecryptRangeInto(r, off, got[off:off+n]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, whole) {
		t.Fatal("panel-sliced decrypt differs from whole-region decrypt")
	}
}

// TestDecryptRangeIntoRejectsBadRanges checks every range the verified
// read path refuses: unaligned, partial-block (a partial block cannot
// be verified), out-of-region, nil, a region the image holds no bytes
// for, and a short whole-region dst.
func TestDecryptRangeIntoRejectsBadRanges(t *testing.T) {
	img, _ := buildImage(t, 0.5)
	lp := img.Layout.Plan.Layers[0]
	r := img.Layout.Region("w:" + lp.Name)
	if r.BlockBytes <= LineBytes {
		t.Fatalf("%s blocks are one line; the partial-block case needs more", r.Name)
	}
	blk := make([]byte, r.BlockBytes)
	if _, err := img.DecryptRangeInto(r, 1, blk); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if _, err := img.DecryptRangeInto(r, 0, make([]byte, r.BlockBytes+1)); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if _, err := img.DecryptRangeInto(r, 0, make([]byte, LineBytes)); err == nil {
		t.Fatal("partial block accepted")
	}
	if _, err := img.DecryptRangeInto(r, r.Size, blk); err == nil {
		t.Fatal("out-of-region range accepted")
	}
	if _, err := img.DecryptRangeInto(nil, 0, blk); err == nil {
		t.Fatal("nil region accepted")
	}
	fm := img.Layout.Region("fmap:" + lp.Name)
	if _, err := img.DecryptRangeInto(fm, 0, make([]byte, fm.BlockBytes)); err == nil {
		t.Fatal("feature-map region, which the image holds no bytes for, accepted")
	}
	if _, err := img.DecryptRegionInto(r, blk[:0]); err == nil {
		t.Fatal("short region dst accepted")
	}
}

// TestReadWeightSnoopZeroAlloc pins the pool to one worker (the scratch
// is documented non-concurrent anyway) and checks the per-weight read
// path no longer allocates.
func TestReadWeightSnoopZeroAlloc(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	img, _ := buildImage(t, 0.5)
	lp := img.Layout.Plan.Layers[2]
	r := img.Layout.Region("w:" + lp.Name)
	if _, err := img.ReadWeight(2, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := img.ReadWeight(2, 1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if img.Snoop(r.Base) == nil {
			t.Fatal("snoop failed")
		}
	}); n != 0 {
		t.Fatalf("ReadWeight+Snoop allocated %v times per run", n)
	}
}

// TestAuditParallelMatchesSerial guards the bulk-decrypt Audit rewrite:
// identical reports at every pool width.
func TestAuditParallelMatchesSerial(t *testing.T) {
	img, m := buildImage(t, 0.5)
	prev := parallel.SetWorkers(1)
	serial, err := img.Audit(m)
	parallel.SetWorkers(8)
	par, err2 := img.Audit(m)
	parallel.SetWorkers(prev)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if len(serial) != len(par) {
		t.Fatalf("report counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("report %d differs: %+v vs %+v", i, serial[i], par[i])
		}
	}
}
