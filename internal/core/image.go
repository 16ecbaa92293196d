package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"seal/internal/aes"
	"seal/internal/models"
	"seal/internal/tensor"
)

// ErrTampered reports a sealed block whose stored bytes or tag fail
// verification: the image was modified after it was sealed.
var ErrTampered = errors.New("core: sealed block failed verification")

// MemoryImage is the functional (byte-accurate) view of the DRAM bytes a
// planned network's weights occupy. It holds bytes only for the regions
// a reader uses, the "w:" weight regions and, in int8 layouts, the
// "qs:" scales headers, and seals each of their blocks once: a block
// the plan marks as ciphertext with AES-GCM, every other block with a
// GMAC tag over its plaintext. Feature-map and im2col regions stay in
// the Layout (addresses, Protected, the timing simulator) but have no
// backing store, since they hold run-time data no image reader touches.
// The image is what a physical bus snooper captures (Snoop) and an
// active attacker rewrites (Tamper), and the executable counterpart of
// the timing simulator's Protected predicate.
type MemoryImage struct {
	Layout *Layout
	held   map[*Region]*sealedRegion
	gcm    *aes.GCM
	// counter is the write counter every block is sealed under (a fresh
	// image is one write).
	counter uint32
	// lineScratch and blockScratch stage one snooped line and one opened
	// block for Snoop and ReadWeight, so those paths allocate nothing.
	// They make the two methods non-reentrant: an image must not serve
	// concurrent ReadWeight/Snoop calls (DecryptRangeInto and the
	// streaming engine do not use them).
	lineScratch  [LineBytes]byte
	blockScratch []byte
}

// sealedRegion is the host-memory backing of one held region. Block i's
// stored bytes (ciphertext or plaintext, as the bus carries them) are
// followed by its tag, so a ciphertext block opens straight from the
// store with no staging copy; the tags take no layout address, so no
// region moves. Each block's nonce is fixed at sealing and only read
// after, so concurrent readers need no nonce buffer of their own.
type sealedRegion struct {
	bb     uint64 // block stride: r.BlockBytes, or r.Size for a region sealed whole
	store  []byte // blocks × (bb + aes.TagSize)
	nonces []byte // blocks × aes.NonceSize
}

func (s *sealedRegion) blocks() int { return len(s.nonces) / aes.NonceSize }

// block returns block i's stored bytes; its capacity runs on over the
// tag.
func (s *sealedRegion) block(i int) []byte {
	st := uint64(i) * (s.bb + aes.TagSize)
	return s.store[st : st+s.bb]
}

// sealed returns block i's stored bytes followed by its tag.
func (s *sealedRegion) sealed(i int) []byte {
	st := uint64(i) * (s.bb + aes.TagSize)
	return s.store[st : st+s.bb+aes.TagSize]
}

func (s *sealedRegion) tag(i int) []byte {
	st := uint64(i)*(s.bb+aes.TagSize) + s.bb
	return s.store[st : st+aes.TagSize]
}

func (s *sealedRegion) nonce(i int) []byte {
	return s.nonces[i*aes.NonceSize : (i+1)*aes.NonceSize]
}

// at returns the stored bytes from region offset off to the end of its
// block.
func (s *sealedRegion) at(off uint64) []byte {
	return s.block(int(off / s.bb))[off%s.bb:]
}

// NewMemoryImage lays the model's weights into the layout's weight
// regions, kernel-row-major as the layout defines, and seals every
// block under AES-128 keyed by key: GCM for the blocks the plan
// encrypts, a GMAC tag for the rest. Each (key, nonce) pair is used
// once per image, so an image key must seal one image only.
func NewMemoryImage(layout *Layout, m *models.Model, key []byte) (*MemoryImage, error) {
	c, err := aes.New(key)
	if err != nil {
		return nil, err
	}
	if len(m.WeightLayers) != len(layout.Plan.Layers) {
		return nil, fmt.Errorf("core: model has %d weight layers, plan %d", len(m.WeightLayers), len(layout.Plan.Layers))
	}
	img := &MemoryImage{Layout: layout, held: map[*Region]*sealedRegion{}, gcm: aes.NewGCM(c), counter: 1}
	for i, lp := range layout.Plan.Layers {
		w := m.WeightLayers[i]
		r := layout.Region("w:" + lp.Name)
		if r == nil {
			return nil, fmt.Errorf("core: missing weights region for %s", lp.Name)
		}
		if !layout.Int8 {
			storeWeights(img.hold(r), w)
			continue
		}
		qs := layout.Region("qs:" + lp.Name)
		if qs == nil {
			return nil, fmt.Errorf("core: missing scales region for %s", lp.Name)
		}
		storeWeightsInt8(img.hold(r), img.hold(qs), w)
	}
	for r, s := range img.held {
		img.seal(r, s)
	}
	return img, nil
}

// hold allocates a region's zeroed backing store and derives each
// block's nonce from its address, the write counter and whether it is
// ciphertext. A region without block structure is sealed whole.
func (img *MemoryImage) hold(r *Region) *sealedRegion {
	bb, n := r.BlockBytes, r.Blocks()
	if bb == 0 {
		bb, n = r.Size, 1
	}
	s := &sealedRegion{
		bb:     bb,
		store:  make([]byte, uint64(n)*(bb+aes.TagSize)),
		nonces: make([]byte, n*aes.NonceSize),
	}
	for i := 0; i < n; i++ {
		off := uint64(i) * bb
		aes.PutNonce(s.nonce(i), r.Base+off, img.counter, !r.Encrypted(off))
	}
	img.held[r] = s
	if uint64(len(img.blockScratch)) < bb {
		img.blockScratch = make([]byte, bb)
	}
	return s
}

// seal seals each block of a held region once: the ciphertext blocks in
// place with their tags, the others with a GMAC tag.
func (img *MemoryImage) seal(r *Region, s *sealedRegion) {
	for i := range s.blocks() {
		if r.Encrypted(uint64(i) * s.bb) {
			img.gcm.Seal(s.block(i), s.nonce(i))
		} else {
			img.gcm.SealMAC(s.tag(i), s.block(i), s.nonce(i))
		}
	}
}

// storeWeights serializes a layer's float32 weights kernel-row-major:
// block c holds the outC·kk weights that multiply input c.
func storeWeights(s *sealedRegion, w *models.WeightLayer) {
	spec := w.Spec
	if w.Conv != nil {
		kk := spec.K * spec.K
		for c := 0; c < spec.InC; c++ {
			blk := s.block(c)
			for o := 0; o < spec.OutC; o++ {
				for k := 0; k < kk; k++ {
					v := w.Conv.Weight.W.Data[(o*spec.InC+c)*kk+k]
					binary.LittleEndian.PutUint32(blk[(o*kk+k)*4:], math.Float32bits(v))
				}
			}
		}
		return
	}
	for c := 0; c < spec.InC; c++ {
		blk := s.block(c)
		for o := 0; o < spec.OutC; o++ {
			v := w.FC.Weight.W.Data[o*spec.InC+c]
			binary.LittleEndian.PutUint32(blk[o*4:], math.Float32bits(v))
		}
	}
}

// quantizeLayer requantizes a layer's float weights with the same
// per-output-channel helper the nn quantized path uses, so image bytes
// and EnableInt8 state are bit-identical by determinism — no ordering
// requirement between EnableInt8 and image construction. The returned
// kernel matrix is [OutC, InC·K·K] for CONV (column index c·kk+k) and
// [Out, In] for FC.
func quantizeLayer(w *models.WeightLayer) (*tensor.Int8Mat, []float32) {
	spec := w.Spec
	cols := spec.InC
	var data []float32
	if w.Conv != nil {
		cols = spec.InC * spec.K * spec.K
		data = w.Conv.Weight.W.Data
	} else {
		data = w.FC.Weight.W.Data
	}
	km := &tensor.Tensor{Shape: []int{spec.OutC, cols}, Data: data}
	q := tensor.NewInt8Mat(spec.OutC, cols)
	scales := make([]float32, spec.OutC)
	tensor.QuantizeRowsInto(q, scales, km)
	return q, scales
}

// storeWeightsInt8 serializes a layer's quantized weights kernel-row-major
// (one byte per weight, same [channel block][out·kk+k] order as the float
// image) and its per-output-channel scales into the plaintext qs header.
func storeWeightsInt8(s, qs *sealedRegion, w *models.WeightLayer) {
	q, scales := quantizeLayer(w)
	spec := w.Spec
	kk := 1
	if w.Conv != nil {
		kk = spec.K * spec.K
	}
	for c := 0; c < spec.InC; c++ {
		blk := s.block(c)
		for o := 0; o < spec.OutC; o++ {
			row := q.Data[o*q.Cols+c*kk : o*q.Cols+(c+1)*kk]
			for k, v := range row {
				blk[o*kk+k] = byte(v)
			}
		}
	}
	hdr := qs.block(0)
	for o, v := range scales {
		binary.LittleEndian.PutUint32(hdr[o*4:], math.Float32bits(v))
	}
}

// scaleAt reads a layer's per-output-channel dequantization scale from
// its stored qs header, unverified, as a bus snooper sees it (1 if the
// layout is not quantized).
func (img *MemoryImage) scaleAt(layer string, outIdx int) float32 {
	qs := img.Layout.Region("qs:" + layer)
	if qs == nil {
		return 1
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(img.held[qs].block(0)[outIdx*4:]))
}

// weightIndex is the position of weight (outIdx, k) inside its
// kernel-row block, counted in weights.
func weightIndex(spec models.LayerSpec, outIdx, k int) int {
	if spec.Kind == models.KindConv {
		return outIdx*spec.K*spec.K + k
	}
	return outIdx
}

// lookup returns the region containing addr and its backing store; the
// store is nil where the image holds no bytes.
func (img *MemoryImage) lookup(addr uint64) (*Region, *sealedRegion) {
	r := img.Layout.find(addr)
	if r == nil {
		return nil, nil
	}
	return r, img.held[r]
}

// Snoop returns the 64-byte line a bus snooper sees at addr (ciphertext
// where the plan encrypts, plaintext elsewhere). It returns nil for
// addresses the image holds no bytes for: outside the layout, or in a
// feature-map or im2col region. The returned slice aliases an internal
// scratch line: it is valid only until the image's next Snoop or
// ReadWeight, and Snoop must not be called concurrently on one image —
// callers that retain or compare lines across calls must copy first.
func (img *MemoryImage) Snoop(addr uint64) []byte {
	r, s := img.lookup(addr)
	if s == nil {
		return nil
	}
	line := (addr - r.Base) / LineBytes * LineBytes
	out := img.lineScratch[:]
	copy(out, s.at(line)[:LineBytes])
	return out
}

// Tamper XORs mask into the stored byte at addr, as an attacker with
// write access to DRAM would, and reports whether the image holds a
// byte there. It is the active counterpart of Snoop: it must not run
// concurrently with any read of the image.
func (img *MemoryImage) Tamper(addr uint64, mask byte) bool {
	r, s := img.lookup(addr)
	if s == nil {
		return false
	}
	s.at(addr - r.Base)[0] ^= mask
	return true
}

// TamperTag XORs mask into byte i (below aes.TagSize) of the tag that
// seals the block holding addr, and reports whether the image holds
// that block. Like Tamper, it must not run concurrently with any read
// of the image.
func (img *MemoryImage) TamperTag(addr uint64, i int, mask byte) bool {
	r, s := img.lookup(addr)
	if s == nil {
		return false
	}
	s.tag(int((addr - r.Base) / s.bb))[i] ^= mask
	return true
}

// ReadWeight verifies and decrypts (as the on-chip memory controller
// would) the block holding the weight for (layer, outIdx, inChannel, k)
// and returns that weight; int8 weights are dequantized by their
// verified qs header. k indexes within the K×K kernel for CONV layers
// and must be 0 for FC layers. The block is opened into an internal
// scratch, so ReadWeight allocates nothing but must not run
// concurrently with itself or Snoop on the same image.
func (img *MemoryImage) ReadWeight(layerIdx, outIdx, inChannel, k int) (float32, error) {
	lp := img.Layout.Plan.Layers[layerIdx]
	r := img.Layout.Region("w:" + lp.Name)
	if r == nil {
		return 0, fmt.Errorf("core: missing weights region for %s", lp.Name)
	}
	blk := img.blockScratch[:r.BlockBytes]
	if _, err := img.DecryptRangeInto(r, uint64(inChannel)*r.BlockBytes, blk); err != nil {
		return 0, err
	}
	i := weightIndex(lp.Spec, outIdx, k)
	if !img.Layout.Int8 {
		return math.Float32frombits(binary.LittleEndian.Uint32(blk[i*4:])), nil
	}
	if qs := img.Layout.Region("qs:" + lp.Name); qs != nil {
		s := img.held[qs]
		if err := img.gcm.OpenMAC(s.block(0), s.tag(0), s.nonce(0)); err != nil {
			return 0, fmt.Errorf("%w: %s", ErrTampered, qs.Name)
		}
	}
	return float32(int8(blk[i])) * img.scaleAt(lp.Name, outIdx), nil
}

// DecryptRangeInto verifies and decrypts the region byte range
// [off, off+len(dst)) into dst, exactly as the memory controller's read
// path would: one AES-GCM Open per ciphertext block, and a GMAC check
// then a copy per bypass block. off and len(dst) must be whole blocks
// of the region, since a partial block cannot be verified. It returns
// the number of ciphertext bytes decrypted (the AES-engine traffic of
// the read, as opposed to bypass traffic). If any block fails
// verification, it zeroes dst and returns an error wrapping
// ErrTampered: no unverified byte reaches the caller.
//
// The image's store is only read and every nonce is fixed at sealing,
// so the method is safe to call concurrently with itself and with the
// streaming engine, but not with Snoop, ReadWeight or Tamper on the
// same image.
func (img *MemoryImage) DecryptRangeInto(r *Region, off uint64, dst []byte) (int, error) {
	if r == nil {
		return 0, fmt.Errorf("core: DecryptRangeInto: nil region")
	}
	s := img.held[r]
	if s == nil {
		return 0, fmt.Errorf("core: DecryptRangeInto: the image holds no bytes for %s", r.Name)
	}
	n := uint64(len(dst))
	if off%s.bb != 0 || n%s.bb != 0 {
		return 0, fmt.Errorf("core: DecryptRangeInto: range [%d, +%d) of %s is not whole %d-byte blocks", off, n, r.Name, s.bb)
	}
	if off+n > r.Size {
		return 0, fmt.Errorf("core: DecryptRangeInto: range [%d, +%d) beyond %s size %d", off, n, r.Name, r.Size)
	}
	enc := 0
	for d := uint64(0); d < n; d += s.bb {
		i := int((off + d) / s.bb)
		out := dst[d : d+s.bb]
		var err error
		if r.Encrypted(off + d) {
			err = img.gcm.Open(out, s.sealed(i), s.nonce(i))
			enc += int(s.bb)
		} else if err = img.gcm.OpenMAC(s.block(i), s.tag(i), s.nonce(i)); err == nil {
			copy(out, s.block(i))
		}
		if err != nil {
			clear(dst)
			return 0, fmt.Errorf("%w: %s block %d", ErrTampered, r.Name, i)
		}
	}
	return enc, nil
}

// DecryptRegionInto decrypts a whole region into dst (which must hold
// at least r.Size bytes) via DecryptRangeInto — the bulk primitive the
// streaming inference engine and Audit are built on.
func (img *MemoryImage) DecryptRegionInto(r *Region, dst []byte) (int, error) {
	if r == nil {
		return 0, fmt.Errorf("core: DecryptRegionInto: nil region")
	}
	if uint64(len(dst)) < r.Size {
		return 0, fmt.Errorf("core: DecryptRegionInto: dst len %d short of %s size %d", len(dst), r.Name, r.Size)
	}
	return img.DecryptRangeInto(r, 0, dst[:r.Size])
}

// SnoopWeight returns the value an adversary reconstructs for the same
// coordinates directly from the bus capture — without the key. For
// plaintext rows this equals the true weight; for encrypted rows it is
// keystream garbage.
func (img *MemoryImage) SnoopWeight(layerIdx, outIdx, inChannel, k int) (float32, error) {
	lp := img.Layout.Plan.Layers[layerIdx]
	r := img.Layout.Region("w:" + lp.Name)
	if r == nil {
		return 0, fmt.Errorf("core: missing weights region for %s", lp.Name)
	}
	blk := img.held[r].block(inChannel)
	i := weightIndex(lp.Spec, outIdx, k)
	if img.Layout.Int8 {
		// The scales header is plaintext, so the adversary dequantizes
		// snooped bytes with the true per-channel scale — exactly the
		// reconstruction the leak accounting must charge.
		return float32(int8(blk[i])) * img.scaleAt(lp.Name, outIdx), nil
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(blk[i*4:])), nil
}

// SnoopReport summarizes what the plan leaks for one layer.
type SnoopReport struct {
	Layer         string
	RowsLeaked    int
	RowsProtected int
	WeightsLeaked int64
	WeightsTotal  int64
}

// Audit verifies the image against the model and produces per-layer
// snoop reports: every plaintext-row weight must be bus-recoverable
// bit-exactly, and every encrypted-row weight must decrypt correctly
// with the key while differing on the bus. It is both the functional
// correctness check of the EMalloc path and the leak accounting.
//
// Each layer is one DecryptRegionInto (which also verifies every
// block's tag) followed by an in-memory compare against the model and
// the stored bus bytes.
func (img *MemoryImage) Audit(m *models.Model) ([]SnoopReport, error) {
	var reports []SnoopReport
	var dec []byte // decrypted-region staging, grown to the largest layer
	for i, lp := range img.Layout.Plan.Layers {
		w := m.WeightLayers[i]
		spec := w.Spec
		kk := spec.K * spec.K
		if spec.Kind == models.KindFC {
			kk = 1
		}
		r := img.Layout.Region("w:" + lp.Name)
		if r == nil {
			return nil, fmt.Errorf("core: missing weights region for %s", lp.Name)
		}
		if uint64(cap(dec)) < r.Size {
			dec = make([]byte, r.Size)
		}
		dec = dec[:r.Size]
		if _, err := img.DecryptRegionInto(r, dec); err != nil {
			return nil, err
		}
		s := img.held[r]
		if img.Layout.Int8 {
			rep, err := img.auditLayerInt8(lp, w, r, dec, s, kk)
			if err != nil {
				return nil, err
			}
			reports = append(reports, rep)
			continue
		}
		rep := SnoopReport{Layer: lp.Name}
		var mismatchEnc bool
		for c, enc := range lp.EncRows {
			if enc {
				rep.RowsProtected++
			} else {
				rep.RowsLeaked++
				rep.WeightsLeaked += int64(spec.OutC * kk)
			}
			rep.WeightsTotal += int64(spec.OutC * kk)
			decBlk, raw := dec[uint64(c)*r.BlockBytes:], s.block(c)
			for o := 0; o < spec.OutC; o++ {
				for k := 0; k < kk; k++ {
					truth := weightAt(w, o, c, k)
					off := (o*kk + k) * 4
					decv := math.Float32frombits(binary.LittleEndian.Uint32(decBlk[off:]))
					if decv != truth {
						return nil, fmt.Errorf("core: %s (%d,%d,%d) decrypts to %v, want %v", lp.Name, o, c, k, decv, truth)
					}
					snooped := math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
					if !enc && snooped != truth {
						return nil, fmt.Errorf("core: %s plaintext row %d not bus-recoverable", lp.Name, c)
					}
					if enc && snooped != truth {
						mismatchEnc = true
					}
				}
			}
		}
		if rep.RowsProtected > 0 && !mismatchEnc {
			return nil, fmt.Errorf("core: %s encrypted rows identical on the bus — encryption missing", lp.Name)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// auditLayerInt8 is Audit's per-layer compare for quantized images: the
// reference is the deterministic requantization of the model weights,
// so every plaintext-row byte must be bus-recoverable exactly, every
// byte must decrypt to the reference with the key, and the plaintext
// scales header must hold the reference scales bit-for-bit.
func (img *MemoryImage) auditLayerInt8(lp *LayerPlan, w *models.WeightLayer, r *Region, dec []byte, s *sealedRegion, kk int) (SnoopReport, error) {
	q, scales := quantizeLayer(w)
	spec := w.Spec
	cols := q.Cols
	for o, sc := range scales {
		if stored := img.scaleAt(lp.Name, o); stored != sc {
			return SnoopReport{}, fmt.Errorf("core: %s scale %d stored as %v, want %v", lp.Name, o, stored, sc)
		}
	}
	rep := SnoopReport{Layer: lp.Name}
	var mismatchEnc bool
	for c, enc := range lp.EncRows {
		if enc {
			rep.RowsProtected++
		} else {
			rep.RowsLeaked++
			rep.WeightsLeaked += int64(spec.OutC * kk)
		}
		rep.WeightsTotal += int64(spec.OutC * kk)
		decBlk, raw := dec[uint64(c)*r.BlockBytes:], s.block(c)
		for o := 0; o < spec.OutC; o++ {
			for k := 0; k < kk; k++ {
				truth := q.Data[o*cols+c*kk+k]
				off := o*kk + k
				if decv := int8(decBlk[off]); decv != truth {
					return SnoopReport{}, fmt.Errorf("core: %s (%d,%d,%d) decrypts to %d, want %d", lp.Name, o, c, k, decv, truth)
				}
				snooped := int8(raw[off])
				if !enc && snooped != truth {
					return SnoopReport{}, fmt.Errorf("core: %s plaintext row %d not bus-recoverable", lp.Name, c)
				}
				if enc && snooped != truth {
					mismatchEnc = true
				}
			}
		}
	}
	if rep.RowsProtected > 0 && !mismatchEnc {
		return SnoopReport{}, fmt.Errorf("core: %s encrypted rows identical on the bus — encryption missing", lp.Name)
	}
	return rep, nil
}

func weightAt(w *models.WeightLayer, o, c, k int) float32 {
	if w.Conv != nil {
		kk := w.Spec.K * w.Spec.K
		return w.Conv.Weight.W.Data[(o*w.Spec.InC+c)*kk+k]
	}
	return w.FC.Weight.W.Data[o*w.Spec.InC+c]
}
