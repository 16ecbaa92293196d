// Package gpu implements the trace-driven cycle simulator for the secure
// GPU. Streaming multiprocessors (SMs) replay per-SM instruction/memory
// traces; memory requests traverse an interconnect, a per-channel L2
// slice, the optional memory-encryption path (direct or counter mode,
// one AES engine per memory controller) and a GDDR5 channel. The model
// reproduces the bandwidth structure of the paper's GPGPU-Sim setup
// (§IV-A): what throttles encrypted runs is the ~8 GB/s engine sitting
// in front of a ~30 GB/s channel.
package gpu

import (
	"fmt"

	"seal/internal/cache"
	"seal/internal/dram"
	"seal/internal/engine"
)

// EncMode selects the memory-encryption scheme of the simulated GPU.
type EncMode int

// Encryption modes evaluated by the paper.
const (
	// ModeNone is the insecure baseline GPU.
	ModeNone EncMode = iota
	// ModeDirect encrypts lines with AES directly: the engine sits in
	// series with every protected DRAM transfer.
	ModeDirect
	// ModeCounter uses counter-mode encryption: pad generation overlaps
	// the data access when the per-line counter hits in the counter
	// cache, but misses add a counter fetch from DRAM.
	ModeCounter
)

// String implements fmt.Stringer.
func (m EncMode) String() string {
	switch m {
	case ModeNone:
		return "Baseline"
	case ModeDirect:
		return "Direct"
	case ModeCounter:
		return "Counter"
	default:
		return fmt.Sprintf("EncMode(%d)", int(m))
	}
}

// EncFn reports whether the line containing addr holds ciphertext. The
// SEAL layout (internal/core) provides this predicate; full encryption
// is func(uint64) bool { return true }.
type EncFn func(addr uint64) bool

// Config describes the simulated GPU.
type Config struct {
	NumSMs          int     // streaming multiprocessors (GTX480: 15)
	IssueWidth      int     // warp instructions issued per SM per cycle
	LanesPerWarp    int     // thread instructions per warp instruction (32)
	MaxOutstanding  int     // per-SM in-flight memory requests (MSHRs)
	InterconnectLat float64 // one-way SM↔partition latency, core cycles
	L2Latency       float64 // L2 slice access latency, core cycles
	CoreClockHz     float64
	LineBytes       int

	Channels int          // memory partitions (GTX480: 6)
	L2Slice  cache.Config // per-partition L2 slice
	DRAM     dram.Config  // per-channel GDDR5 model

	Mode       EncMode
	EngineSpec engine.Spec          // per-partition AES engine
	Counter    engine.CounterConfig // counter-mode bookkeeping (per partition)
	Protected  EncFn                // nil means nothing is encrypted

	// Integrity additionally authenticates every protected line with a
	// per-line MAC (Yan et al. [24] pair memory encryption with
	// authentication). MACs pack into line-sized blocks cached on chip;
	// a MAC-cache miss costs an extra DRAM fetch and verification must
	// complete before a read's data is released. SEAL's bypassed lines
	// skip the MAC as well — authenticating public data defends nothing
	// the threat model cares about (the adversary is a reader).
	Integrity bool
	MAC       engine.CounterConfig // MAC bookkeeping (per partition)
	MACVerify float64              // verification latency, core cycles

	// Reference selects the per-cycle reference scheduler instead of the
	// default event-driven fast-forward. Both produce bit-identical
	// Results; the reference path exists as the semantic ground truth for
	// equivalence tests and debugging. The SEAL_SIM_REF=1 environment
	// variable forces it process-wide at Sim construction time.
	Reference bool
}

// ConfigGTX480 returns the paper's simulated GPU: NVIDIA GeForce GTX480,
// 15 SMs, six 64-bit GDDR5 channels at 3696 MT/s (384-bit bus,
// ≈177 GB/s), one 8 GB/s AES engine per memory controller (§IV-A).
func ConfigGTX480() Config {
	const coreHz = 700e6
	// 177.4 GB/s across 6 channels → 29.6 GB/s each → 42.2 B/core-cycle.
	const bytesPerCycPerChan = 177.4e9 / 6 / coreHz
	return Config{
		NumSMs:          15,
		IssueWidth:      2,
		LanesPerWarp:    32,
		MaxOutstanding:  48,
		InterconnectLat: 16,
		L2Latency:       20,
		CoreClockHz:     coreHz,
		LineBytes:       64,
		Channels:        6,
		L2Slice:         cache.Config{SizeBytes: 128 * 1024, LineBytes: 64, Ways: 8},
		DRAM: dram.Config{
			Banks: 16, RowBytes: 2048, BytesPerCycle: bytesPerCycPerChan,
			TRCD: 8, TRP: 8, TCL: 10, QueueDepth: 32, LineBytes: 64,
		},
		Mode:       ModeNone,
		EngineSpec: engine.SpecModeled,
		Counter: engine.CounterConfig{
			DataLineBytes:  64,
			CounterBytes:   8,
			CacheSizeBytes: 96 * 1024 / 6, // paper default sweep point, split across partitions
			CacheWays:      4,
			CounterBase:    1 << 44,
		},
		MAC: engine.CounterConfig{
			DataLineBytes:  64,
			CounterBytes:   8, // 64-bit truncated MAC per line
			CacheSizeBytes: 48 * 1024 / 6,
			CacheWays:      4,
			CounterBase:    1 << 45,
		},
		MACVerify: 20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumSMs <= 0 || c.IssueWidth <= 0 || c.LanesPerWarp <= 0 || c.MaxOutstanding <= 0 {
		return fmt.Errorf("gpu: invalid SM parameters %+v", c)
	}
	if c.Channels <= 0 || c.LineBytes <= 0 || c.CoreClockHz <= 0 {
		return fmt.Errorf("gpu: invalid system parameters %+v", c)
	}
	if err := c.L2Slice.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.EngineSpec.Validate(); err != nil {
		return err
	}
	if c.Mode == ModeCounter {
		if err := c.Counter.Validate(); err != nil {
			return err
		}
	}
	if c.Integrity {
		if c.Mode == ModeNone {
			return fmt.Errorf("gpu: integrity requires an encryption mode")
		}
		if c.MACVerify < 0 {
			return fmt.Errorf("gpu: negative MAC verify latency")
		}
		if err := c.MAC.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// WithMode returns a copy of c with the encryption mode and protected
// predicate set. A nil fn with a non-baseline mode protects everything.
func (c Config) WithMode(m EncMode, fn EncFn) Config {
	c.Mode = m
	if fn == nil && m != ModeNone {
		fn = func(uint64) bool { return true }
	}
	c.Protected = fn
	return c
}
