// Package cache models a set-associative, write-back, LRU cache. The GPU
// simulator instantiates it twice: as the per-partition L2 slice and as
// the on-chip counter cache of counter-mode memory encryption (paper
// §II-B adds a counter cache and sweeps its size in Figure 1).
package cache

import "fmt"

// Config describes a cache instance.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size; must be a power of two
	Ways      int // associativity
}

// Validate checks structural invariants.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive associativity %d", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte lines", c.SizeBytes, c.Ways, c.LineBytes)
	}
	// Set counts need not be powers of two: the paper sweeps counter
	// caches of 24/96/384/1536 KB, which index by modulo.
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

type way struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// Stats counts cache events since construction.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative LRU cache model. It tracks tags only (no
// data payloads — the simulator moves data separately).
type Cache struct {
	cfg       Config
	ways      []way // nsets*Ways entries, set-major — one flat block, no per-set pointer chase
	clock     uint64
	lineShift uint
	nsets     uint64
	// setShift/setMask index sets by shift-and-mask when the set count is
	// a power of two (every standard configuration); division otherwise
	// (the paper's counter-cache sweep allows arbitrary sizes).
	setShift uint
	setMask  uint64
	setsPow2 bool
	nways    uint64
	stats    Stats
}

// New constructs a cache; it panics on an invalid configuration since
// configurations are static experiment parameters.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		ways:  make([]way, nsets*cfg.Ways),
		nsets: uint64(nsets),
		nways: uint64(cfg.Ways),
	}
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineBytes {
			c.lineShift = shift
			break
		}
	}
	if n := uint64(nsets); n&(n-1) == 0 {
		c.setsPow2 = true
		c.setMask = n - 1
		for 1<<c.setShift != n {
			c.setShift++
		}
	}
	return c
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Writeback is true when the access evicted a dirty line, which costs
	// an extra memory write in the timing model. EvictedAddr is the line
	// address of the victim.
	Writeback   bool
	EvictedAddr uint64
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.lineShift
	if c.setsPow2 {
		return line & c.setMask, line >> c.setShift
	}
	return line % c.nsets, line / c.nsets
}

// Access performs a read (write=false) or write (write=true) to addr,
// allocating on miss (write-allocate) and returning what happened.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	set, tag := c.index(addr)
	ways := c.ways[set*c.nways : set*c.nways+c.nways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lastUse = c.clock
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	// choose victim: first invalid way, else LRU
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	res := Result{}
	if ways[victim].valid {
		c.stats.Evictions++
		res.EvictedAddr = (ways[victim].tag*c.nsets + set) << c.lineShift
		if ways[victim].dirty {
			c.stats.Writebacks++
			res.Writeback = true
		}
	}
	ways[victim] = way{tag: tag, valid: true, dirty: write, lastUse: c.clock}
	return res
}

// Stats returns the counters accumulated since New.
func (c *Cache) Stats() Stats { return c.stats }
