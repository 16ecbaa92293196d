package core

import (
	"fmt"
	"sort"

	"seal/internal/models"
)

// LineBytes is the memory-bus transfer granularity assumed by layouts.
const LineBytes = 64

// RegionKind classifies address-space regions.
type RegionKind int

// Region kinds.
const (
	RegionWeights RegionKind = iota
	RegionFmap
	RegionCols // im2col scratch of a conv layer
	RegionPlain
)

// Region is one allocation in the simulated DRAM address space. A
// region is divided into fixed-stride blocks (kernel rows for weights,
// channels for feature maps); Enc marks which blocks hold ciphertext.
type Region struct {
	Name       string
	Kind       RegionKind
	Base       uint64
	Size       uint64
	BlockBytes uint64 // stride of one row/channel block; 0 = uniform region
	Enc        []bool // per-block encryption; nil with Uniform=true below
	Uniform    bool   // whole region shares one encryption state
	UniformEnc bool
}

// Encrypted reports whether the byte at region offset off is ciphertext.
func (r *Region) Encrypted(off uint64) bool {
	if r.Uniform {
		return r.UniformEnc
	}
	if r.BlockBytes == 0 {
		return false
	}
	blk := off / r.BlockBytes
	if blk >= uint64(len(r.Enc)) {
		return false
	}
	return r.Enc[blk]
}

// Blocks returns the number of fixed-stride blocks in the region (0 for
// uniform regions).
func (r *Region) Blocks() int {
	if r.BlockBytes == 0 {
		return 0
	}
	return len(r.Enc)
}

// EncryptedBytes returns the ciphertext byte count of the region.
func (r *Region) EncryptedBytes() uint64 {
	if r.Uniform {
		if r.UniformEnc {
			return r.Size
		}
		return 0
	}
	var n uint64
	for _, e := range r.Enc {
		if e {
			n += r.BlockBytes
		}
	}
	if n > r.Size {
		n = r.Size
	}
	return n
}

// AddressSpace is a bump allocator over the simulated DRAM, exposing the
// paper's programming primitives: Malloc for public data and EMalloc for
// data the encryption engines must protect (§III-A: "The memory space
// allocated by emalloc() needs to be encrypted").
type AddressSpace struct {
	regions []*Region
	next    uint64
}

// NewAddressSpace starts allocating at base (line-aligned).
func NewAddressSpace(base uint64) *AddressSpace {
	return &AddressSpace{next: alignUp(base, LineBytes)}
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) / a * a }

func (a *AddressSpace) alloc(name string, kind RegionKind, size uint64) *Region {
	r := &Region{Name: name, Kind: kind, Base: a.next, Size: alignUp(size, LineBytes)}
	a.next += r.Size
	// page-align successive regions so no line straddles two regions
	a.next = alignUp(a.next, 4096)
	a.regions = append(a.regions, r)
	return r
}

// Malloc allocates a plaintext region.
func (a *AddressSpace) Malloc(name string, size uint64) *Region {
	r := a.alloc(name, RegionPlain, size)
	r.Uniform = true
	return r
}

// EMalloc allocates a fully encrypted region.
func (a *AddressSpace) EMalloc(name string, size uint64) *Region {
	r := a.alloc(name, RegionPlain, size)
	r.Uniform = true
	r.UniformEnc = true
	return r
}

// EMallocBlocks allocates a region of len(enc) blocks of blockBytes each
// (line-aligned), encrypting exactly the marked blocks — the selective
// variant SEAL's runtime uses for kernel rows and feature-map channels.
func (a *AddressSpace) EMallocBlocks(name string, kind RegionKind, blockBytes uint64, enc []bool) *Region {
	stride := alignUp(blockBytes, LineBytes)
	r := a.alloc(name, kind, stride*uint64(len(enc)))
	r.BlockBytes = stride
	r.Enc = append([]bool(nil), enc...)
	return r
}

// Regions returns all allocations in address order.
func (a *AddressSpace) Regions() []*Region { return a.regions }

// End returns the first unallocated address.
func (a *AddressSpace) End() uint64 { return a.next }

// Layout is the concrete memory image of a planned network: one weights
// region per weight layer, one region per feature map, and an im2col
// scratch region per CONV layer, each annotated with its ciphertext
// blocks. It provides the Protected predicate the GPU simulator consults
// per bus transfer.
type Layout struct {
	Plan  *Plan
	Batch int
	// Int8 marks the quantized image format: weight regions hold one
	// int8 byte per weight (same kernel-row block structure, so the
	// plan's EncRows bitmaps apply unchanged) and each weight layer
	// carries a plaintext "qs:<name>" header region with its
	// per-output-channel float32 dequantization scales. Scales are
	// public by design — the paper's threat model protects the weight
	// values; a per-channel magnitude reveals nothing the ℓ1 ranking
	// has not already conceded for plaintext rows.
	Int8   bool
	space  *AddressSpace
	byName map[string]*Region
	sorted []*Region // by Base, for lookup
}

// NewLayout materializes the address space for a plan with the given
// inference batch size. Every architecture layer gets an output region:
// weight layers per the plan's channel bitmaps, pooling layers
// inheriting the channel encryption of the feature map flowing through
// them (pooling is per-channel, so ciphertext channels stay ciphertext).
func NewLayout(p *Plan, batch int) (*Layout, error) {
	return newLayout(p, batch, false)
}

// NewInt8Layout materializes the quantized address space: weight blocks
// shrink to one byte per weight (a 4× cut in protected weight traffic
// before line alignment) and each weight layer gains a plaintext
// "qs:<name>" scales header. Feature maps and im2col scratch stay
// float32 — activations are quantized transiently on-chip, never stored.
func NewInt8Layout(p *Plan, batch int) (*Layout, error) {
	return newLayout(p, batch, true)
}

func newLayout(p *Plan, batch int, int8Mode bool) (*Layout, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("core: non-positive batch %d", batch)
	}
	l := &Layout{Plan: p, Batch: batch, Int8: int8Mode, space: NewAddressSpace(0), byName: map[string]*Region{}}
	add := func(r *Region) { l.byName[r.Name] = r }

	// network input image: public (the querying party supplies it), but
	// still channel-blocked so the trace generator can address channels.
	in := p.Arch
	add(l.space.EMallocBlocks("fmap:input", RegionFmap,
		uint64(batch*in.InH*in.InW)*4, make([]bool, in.InC)))

	// current per-channel encryption of the flowing feature map
	flowEnc := make([]bool, in.InC)
	wi := 0
	for _, s := range p.Arch.Specs {
		switch s.Kind {
		case models.KindConv, models.KindFC:
			if wi >= len(p.Layers) || p.Layers[wi].Name != s.Name {
				return nil, fmt.Errorf("core: layout/plan order mismatch at %s", s.Name)
			}
			lp := p.Layers[wi]
			wi++
			weightBytes := uint64(4)
			if int8Mode {
				weightBytes = 1
			}
			var rowBytes uint64
			if s.Kind == models.KindConv {
				rowBytes = uint64(s.OutC*s.K*s.K) * weightBytes
			} else {
				rowBytes = uint64(s.OutC) * weightBytes
			}
			add(l.space.EMallocBlocks("w:"+lp.Name, RegionWeights, rowBytes, lp.EncRows))
			if int8Mode {
				add(l.space.Malloc("qs:"+lp.Name, uint64(s.OutC)*4))
			}
			if s.Kind == models.KindConv {
				colBytes := uint64(batch*s.K*s.K*s.OutH()*s.OutW()) * 4
				add(l.space.EMallocBlocks("cols:"+lp.Name, RegionCols, colBytes, lp.InEnc))
			}
			chanBytes := uint64(batch*s.OutH()*s.OutW()) * 4
			if s.Kind == models.KindFC {
				chanBytes = uint64(batch) * 4
			}
			add(l.space.EMallocBlocks("fmap:"+lp.Name, RegionFmap, chanBytes, lp.OutEnc))
			if s.ShortcutOf == "" {
				flowEnc = lp.OutEnc
			}
		case models.KindPool, models.KindGlobalAvgPool:
			chanBytes := uint64(batch*s.OutH()*s.OutW()) * 4
			enc := flowEnc
			if len(enc) != s.InC {
				enc = make([]bool, s.InC)
			}
			add(l.space.EMallocBlocks("fmap:"+s.Name, RegionFmap, chanBytes, enc))
		}
	}
	l.sorted = append([]*Region(nil), l.space.Regions()...)
	sort.Slice(l.sorted, func(i, j int) bool { return l.sorted[i].Base < l.sorted[j].Base })
	return l, nil
}

// Region returns the named region ("w:<layer>", "fmap:<layer>",
// "cols:<layer>", "fmap:input", and in int8 layouts "qs:<layer>"),
// or nil.
func (l *Layout) Region(name string) *Region { return l.byName[name] }

// Regions returns all regions in address order.
func (l *Layout) Regions() []*Region { return l.sorted }

// find locates the region containing addr, or nil.
func (l *Layout) find(addr uint64) *Region {
	i := sort.Search(len(l.sorted), func(i int) bool { return l.sorted[i].Base > addr })
	if i == 0 {
		return nil
	}
	r := l.sorted[i-1]
	if addr >= r.Base+r.Size {
		return nil
	}
	return r
}

// Protected reports whether the line containing addr holds ciphertext —
// the EncFn the GPU simulator consults. Addresses outside any region
// (e.g. counter storage) are plaintext.
func (l *Layout) Protected(addr uint64) bool {
	r := l.find(addr)
	if r == nil {
		return false
	}
	return r.Encrypted(addr - r.Base)
}

// EncryptedFraction returns ciphertext bytes / total bytes across all
// regions — the traffic-side effect of the SE scheme.
func (l *Layout) EncryptedFraction() float64 {
	var enc, total uint64
	for _, r := range l.sorted {
		enc += r.EncryptedBytes()
		total += r.Size
	}
	if total == 0 {
		return 0
	}
	return float64(enc) / float64(total)
}

// End returns the first address beyond the layout (counter regions are
// placed above this by the simulator config).
func (l *Layout) End() uint64 { return l.space.End() }
