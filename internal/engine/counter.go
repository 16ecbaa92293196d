package engine

import (
	"fmt"

	"seal/internal/cache"
)

// CounterConfig describes the counter organization of counter-mode
// memory encryption: one write counter per data line, packed into
// line-sized counter blocks that live in a reserved DRAM region and are
// cached on chip (paper §II-B, [24]).
type CounterConfig struct {
	DataLineBytes  int    // protected-data line size (64)
	CounterBytes   int    // bytes per counter (8)
	CacheSizeBytes int    // on-chip counter cache capacity
	CacheWays      int    // counter cache associativity
	CounterBase    uint64 // DRAM base address of the counter region
}

// Validate checks structural invariants.
func (c CounterConfig) Validate() error {
	if c.DataLineBytes <= 0 || c.CounterBytes <= 0 || c.DataLineBytes%c.CounterBytes != 0 {
		return fmt.Errorf("engine: invalid counter geometry %+v", c)
	}
	return cache.Config{SizeBytes: c.CacheSizeBytes, LineBytes: c.DataLineBytes, Ways: c.CacheWays}.Validate()
}

// CountersPerLine returns how many data-line counters pack into one
// counter-cache line.
func (c CounterConfig) CountersPerLine() int { return c.DataLineBytes / c.CounterBytes }

// CounterLineAddr maps a protected data address to the DRAM address of
// the counter block covering it. Each counter block covers
// CountersPerLine consecutive data lines.
func (c CounterConfig) CounterLineAddr(dataAddr uint64) uint64 {
	dataLine := dataAddr / uint64(c.DataLineBytes)
	block := dataLine / uint64(c.CountersPerLine())
	return c.CounterBase + block*uint64(c.DataLineBytes)
}

// CounterResult reports the outcome of a counter lookup.
type CounterResult struct {
	Hit bool
	// MissAddr is the counter-block DRAM address to fetch on a miss.
	MissAddr uint64
	// Writeback and WritebackAddr report a dirty counter block evicted by
	// the fill, which costs an extra DRAM write.
	Writeback     bool
	WritebackAddr uint64
}

// CounterCache models the on-chip counter cache plus the functional
// per-line write counters used when the simulator also performs real
// encryption (the bus-snooper demo).
type CounterCache struct {
	cfg    CounterConfig
	cache  *cache.Cache
	values map[uint64]uint64 // data line address -> write counter
}

// NewCounterCache constructs the counter cache; it panics on an invalid
// configuration.
func NewCounterCache(cfg CounterConfig) *CounterCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &CounterCache{
		cfg: cfg,
		cache: cache.New(cache.Config{
			SizeBytes: cfg.CacheSizeBytes,
			LineBytes: cfg.DataLineBytes,
			Ways:      cfg.CacheWays,
		}),
		values: map[uint64]uint64{},
	}
}

// Config returns the counter configuration.
func (cc *CounterCache) Config() CounterConfig { return cc.cfg }

// Lookup accesses the counter covering dataAddr. A read leaves the
// counter unchanged; a write increments it (and dirties the cached
// block, since counters are write-allocated on chip).
func (cc *CounterCache) Lookup(dataAddr uint64, write bool) CounterResult {
	ctrAddr := cc.cfg.CounterLineAddr(dataAddr)
	res := cc.cache.Access(ctrAddr, write)
	out := CounterResult{Hit: res.Hit}
	if !res.Hit {
		out.MissAddr = ctrAddr
	}
	if res.Writeback {
		out.Writeback = true
		out.WritebackAddr = res.EvictedAddr
	}
	if write {
		line := dataAddr / uint64(cc.cfg.DataLineBytes)
		cc.values[line]++
	}
	return out
}

// Value returns the current write counter for the data line containing
// addr (0 before the first write).
func (cc *CounterCache) Value(addr uint64) uint64 {
	return cc.values[addr/uint64(cc.cfg.DataLineBytes)]
}

// HitRate returns the counter cache hit rate so far.
func (cc *CounterCache) HitRate() float64 { return cc.cache.Stats().HitRate() }

// Stats exposes the underlying cache statistics.
func (cc *CounterCache) Stats() cache.Stats { return cc.cache.Stats() }
