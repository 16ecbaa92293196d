package gpu

// Op is one unit of a per-SM trace: Compute warp-instructions of
// arithmetic followed by at most one memory access. Memory addresses are
// physical line-granularity addresses into the simulated DRAM space; the
// partition consults Config.Protected to decide whether a line takes the
// encryption path.
type Op struct {
	Compute int    // warp instructions of compute preceding the access
	Addr    uint64 // line address of the access (ignored if NoMem)
	Write   bool
	NoMem   bool // pure-compute op (used for trailing arithmetic)
}

// Stream is the in-order instruction trace of one SM.
type Stream []Op

// WarpInsts returns the total warp instructions in the stream (compute
// plus one per memory access).
func (s Stream) WarpInsts() int64 {
	var n int64
	for _, op := range s {
		n += int64(op.Compute)
		if !op.NoMem {
			n++
		}
	}
	return n
}

// MemOps returns the number of memory accesses in the stream.
func (s Stream) MemOps() int64 {
	var n int64
	for _, op := range s {
		if !op.NoMem {
			n++
		}
	}
	return n
}
