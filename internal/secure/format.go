package secure

import (
	"encoding/binary"
	"fmt"
	"math"

	"seal/internal/tensor"
)

// panelFormat is the part of the panel pipeline that depends on how the
// image stores weights. NewEngine picks one per image; geometry,
// staging, the decode/consume driver, the fan-out and the bias are
// shared. Per-item state (im2col operands, accumulators) is indexed by
// batch item, scratch by fan-out chunk, panels by buffer parity.
type panelFormat interface {
	// add folds a layer's buffer needs into the format's maxima; it may
	// shrink the layer's panels.
	add(s *layerStep) error
	// alloc allocates the double-buffered panels once every layer is added.
	alloc()
	// ensureBatch grows the per-item pools to n items and the per-chunk
	// pools to chunks.
	ensureBatch(n, chunks int)
	// prep stages item i's GEMM operand.
	prep(s *layerStep, i, chunk int)
	// convert repacks a staged panel of nb blocks — the layout's
	// [block][out][k] weights — into the [out][block·k] GEMM panel in
	// buffer parity.
	convert(s *layerStep, buf []byte, nb, parity int)
	// gemm folds panel t, held in buffer parity, into item i.
	gemm(s *layerStep, t, parity, i, chunk int)
	// finish writes item i's float output, bias included.
	finish(s *layerStep, i, chunk int)
}

// floatFormat streams 4-byte little-endian float32 weights. Its panel
// GEMMs reproduce the plaintext kernels' per-element order — conv
// continues MatMulIntoWS's chain over the item's im2col matrix, FC
// continues MatMulTransBIntoWS's over the item's input row — and the
// bias adds after the last panel, as in Conv2D.forwardInfer and
// Linear.Forward.
type floatFormat struct {
	wbuf [2][]float32 // double-buffered weight panels
	wHdr [2]*tensor.Tensor
	cols [][]float32 // per-item im2col matrices (conv)

	// per-chunk headers and GEMM packing scratch
	imgHdr, inHdr, outHdr []*tensor.Tensor
	scratch               [][]float32

	maxPanel, maxCols, maxScratch int
}

func (f *floatFormat) add(s *layerStep) error {
	f.maxPanel = max(f.maxPanel, s.outC*s.cpp*s.kk)
	if s.conv != nil {
		f.maxCols = max(f.maxCols, s.blocks*s.kk*s.ncols)
		f.maxScratch = max(f.maxScratch, tensor.MatMulPanelLen(s.cpp*s.kk))
	}
	return nil
}

func (f *floatFormat) alloc() {
	for p := range f.wbuf {
		f.wbuf[p] = make([]float32, f.maxPanel)
		f.wHdr[p] = &tensor.Tensor{}
	}
}

func (f *floatFormat) ensureBatch(n, chunks int) {
	for len(f.cols) < n {
		f.cols = append(f.cols, make([]float32, f.maxCols))
	}
	for len(f.scratch) < chunks {
		f.scratch = append(f.scratch, make([]float32, f.maxScratch))
		f.imgHdr = append(f.imgHdr, &tensor.Tensor{})
		f.inHdr = append(f.inHdr, &tensor.Tensor{})
		f.outHdr = append(f.outHdr, &tensor.Tensor{})
	}
}

// prep expands a conv item into its im2col matrix; FC layers read their
// input rows in place.
func (f *floatFormat) prep(s *layerStep, i, chunk int) {
	if s.conv == nil {
		return
	}
	g := s.conv.Geom
	aim3(f.imgHdr[chunk], s.x.Data[i*s.perIn:(i+1)*s.perIn], g.InC, g.InH, g.InW)
	aim2(f.inHdr[chunk], f.cols[i][:s.blocks*s.kk*s.ncols], s.blocks*s.kk, s.ncols)
	tensor.Im2ColInto(f.inHdr[chunk], f.imgHdr[chunk], g)
}

func (f *floatFormat) convert(s *layerStep, buf []byte, nb, parity int) {
	kk, kp := s.kk, nb*s.kk
	w := f.wbuf[parity][:s.outC*kp]
	bb := int(s.region.BlockBytes)
	for c := 0; c < nb; c++ {
		blk := buf[c*bb:]
		for o := 0; o < s.outC; o++ {
			dst := w[o*kp+c*kk : o*kp+(c+1)*kk]
			src := blk[o*kk*4:]
			for k := range dst {
				dst[k] = math.Float32frombits(binary.LittleEndian.Uint32(src[k*4:]))
			}
		}
	}
	aim2(f.wHdr[parity], w, s.outC, kp)
}

func (f *floatFormat) gemm(s *layerStep, t, parity, i, chunk int) {
	p0, acc := t*s.cpp*s.kk, t > 0
	per := s.outC * s.ncols
	out, in := f.outHdr[chunk], f.inHdr[chunk]
	if s.conv == nil {
		aim2(out, s.out.Data[i*per:(i+1)*per], 1, s.outC)
		aim2(in, s.x.Data[i*s.perIn:(i+1)*s.perIn], 1, s.perIn)
		tensor.MatMulTransBPanelAccWS(out, in, p0, f.wHdr[parity], acc)
		return
	}
	aim2(out, s.out.Data[i*per:(i+1)*per], s.outC, s.ncols)
	aim2(in, f.cols[i][:s.blocks*s.kk*s.ncols], s.blocks*s.kk, s.ncols)
	tensor.MatMulPanelAccWS(out, f.wHdr[parity], in, p0, acc, f.scratch[chunk])
}

func (f *floatFormat) finish(s *layerStep, i, _ int) { s.addBias(i) }

// int8Format streams 1-byte weights with per-output scales from the
// layer's plaintext qs header — ≈4× less ciphertext through the AES
// engine — into the dual-lane int8 GEMM. Each item is quantized with
// its own dynamic symmetric scale, panels chain in exact int32 (any
// split gives the same bits), and each layer dequantizes once after its
// last panel: the nn quantized eval path's helper sequence
// (QuantScale → QuantizeSliceInto → Im2ColTransInt8Into → int8 GEMM →
// dequantize → bias), so logits equal nn's int8 logits bit for bit. An
// FC item is a one-row GEMM; its dequantize is the conv one with one
// column, which multiplies the same two scales.
type int8Format struct {
	wbuf [2][]int8 // double-buffered weight panels
	wHdr [2]*tensor.Int8Mat
	pack [2][]int64 // their packed dual-lane words

	// per-item GEMM operands ([ncols, blocks·kk]: transposed im2col for
	// conv, the quantized row for FC), int32 accumulators [ncols, outC]
	// and activation scales
	qa    [][]int8
	acc   [][]int32
	scale []float32

	// per-chunk quantize staging, headers and GEMM workspaces
	qimg   [][]int8
	aHdr   []*tensor.Int8Mat
	outHdr []*tensor.Tensor
	ws     []*tensor.Int8GEMMWS

	maxPanel, maxPacked, maxImg, maxA, maxAcc int
}

func (f *int8Format) add(s *layerStep) error {
	// Keep every panel inside the packed GEMM's single-call depth so the
	// streaming path never hits the splitting fallback.
	if maxCpp := tensor.MaxInt8PanelDepth / s.kk; s.cpp > maxCpp {
		s.cpp = maxCpp
		s.panels = (s.blocks + s.cpp - 1) / s.cpp
	}
	kp := s.cpp * s.kk
	f.maxPanel = max(f.maxPanel, s.outC*kp)
	f.maxPacked = max(f.maxPacked, tensor.PackedBLen(s.outC, kp))
	f.maxA = max(f.maxA, s.ncols*s.blocks*s.kk)
	f.maxAcc = max(f.maxAcc, s.ncols*s.outC)
	if s.conv != nil {
		f.maxImg = max(f.maxImg, s.perIn)
	}
	var err error
	s.qscales, err = s.e.readScales(s.name, s.outC)
	return err
}

// readScales loads a layer's per-output-channel scales from its
// plaintext "qs:" header region.
func (e *Engine) readScales(name string, outC int) ([]float32, error) {
	r := e.img.Layout.Region("qs:" + name)
	if r == nil {
		return nil, fmt.Errorf("secure: missing scales region for %s", name)
	}
	if r.Size < uint64(outC)*4 {
		return nil, fmt.Errorf("secure: scales region for %s has %d bytes, layer needs %d", name, r.Size, outC*4)
	}
	buf := make([]byte, r.Size)
	if _, err := e.img.DecryptRangeInto(r, 0, buf); err != nil {
		return nil, err
	}
	s := make([]float32, outC)
	for o := range s {
		s[o] = math.Float32frombits(binary.LittleEndian.Uint32(buf[o*4:]))
	}
	return s, nil
}

func (f *int8Format) alloc() {
	for p := range f.wbuf {
		f.wbuf[p] = make([]int8, f.maxPanel)
		f.wHdr[p] = &tensor.Int8Mat{}
		f.pack[p] = make([]int64, f.maxPacked)
	}
}

// ensureBatch also grows the per-chunk GEMM workspaces, which size
// themselves lazily on first use (their ensure is internal), so a warm
// Forward with stable batch and pool width allocates nothing.
func (f *int8Format) ensureBatch(n, chunks int) {
	for len(f.qa) < n {
		f.qa = append(f.qa, make([]int8, f.maxA))
		f.acc = append(f.acc, make([]int32, f.maxAcc))
		f.scale = append(f.scale, 0)
	}
	for len(f.ws) < chunks {
		f.ws = append(f.ws, tensor.NewInt8GEMMWS(1, 1, 0))
		f.qimg = append(f.qimg, make([]int8, f.maxImg))
		f.aHdr = append(f.aHdr, &tensor.Int8Mat{})
		f.outHdr = append(f.outHdr, &tensor.Tensor{})
	}
}

// prep quantizes item i with its own scale — straight into the GEMM
// operand for FC, through the transposed im2col for conv.
func (f *int8Format) prep(s *layerStep, i, chunk int) {
	in := s.x.Data[i*s.perIn : (i+1)*s.perIn]
	sc := tensor.QuantScale(tensor.MaxAbsSlice(in))
	f.scale[i] = sc
	qa := f.qa[i][:s.ncols*s.blocks*s.kk]
	if s.conv == nil {
		tensor.QuantizeSliceInto(qa, in, sc)
		return
	}
	qimg := f.qimg[chunk][:s.perIn]
	tensor.QuantizeSliceInto(qimg, in, sc)
	aimQ(f.aHdr[chunk], qa, s.ncols, s.blocks*s.kk)
	tensor.Im2ColTransInt8Into(f.aHdr[chunk], qimg, s.conv.Geom)
}

// convert also prepacks the panel's dual-lane words once for the whole
// batch.
func (f *int8Format) convert(s *layerStep, buf []byte, nb, parity int) {
	kk, kp := s.kk, nb*s.kk
	w := f.wbuf[parity][:s.outC*kp]
	bb := int(s.region.BlockBytes)
	for c := 0; c < nb; c++ {
		blk := buf[c*bb:]
		for o := 0; o < s.outC; o++ {
			dst := w[o*kp+c*kk : o*kp+(c+1)*kk]
			src := blk[o*kk:]
			for k := range dst {
				dst[k] = int8(src[k])
			}
		}
	}
	aimQ(f.wHdr[parity], w, s.outC, kp)
	tensor.PackInt8BInto(f.pack[parity][:tensor.PackedBLen(s.outC, kp)], f.wHdr[parity])
}

func (f *int8Format) gemm(s *layerStep, t, parity, i, chunk int) {
	w := f.wHdr[parity]
	a := f.aHdr[chunk]
	aimQ(a, f.qa[i][:s.ncols*s.blocks*s.kk], s.ncols, s.blocks*s.kk)
	tensor.MatMulInt8TransBPrepackedAcc(f.acc[i][:s.ncols*s.outC], a, t*s.cpp*s.kk,
		f.pack[parity][:tensor.PackedBLen(w.Rows, w.Cols)], w, t > 0, f.ws[chunk])
}

// finish dequantizes item i's [ncols, outC] accumulators straight into
// its NCHW output, then adds the bias.
func (f *int8Format) finish(s *layerStep, i, chunk int) {
	per := s.outC * s.ncols
	dst := f.outHdr[chunk]
	aim2(dst, s.out.Data[i*per:(i+1)*per], s.outC, s.ncols)
	tensor.DequantizeTransposeInto(dst, f.acc[i], s.qscales, f.scale[i])
	s.addBias(i)
}

// aimQ re-points a reusable int8 matrix header at a storage slice.
func aimQ(m *tensor.Int8Mat, data []int8, rows, cols int) {
	m.Data = data
	m.Rows = rows
	m.Cols = cols
}
