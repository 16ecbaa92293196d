// Package prng provides a small, deterministic pseudo-random number
// generator used throughout the SEAL reproduction. Experiments must be
// bit-reproducible across runs and Go releases, so we implement
// xoshiro256** seeded via splitmix64 rather than relying on math/rand,
// whose default source changed across Go versions.
package prng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
	// cached second Gaussian from the Box-Muller transform
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded from the given seed using splitmix64, which
// guarantees a well-mixed nonzero internal state for any seed value.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless method would be overkill here; simple
	// modulo bias is negligible for the n values used in this repository
	// (n << 2^32), but we reject to stay exact.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniformly distributed float32 in [0, 1).
func (r *Source) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// NormFloat64 returns a standard normal variate via the Box-Muller
// transform. Two variates are produced per transform; one is cached.
func (r *Source) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.gauss = mag * math.Sin(2*math.Pi*v)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*v)
}

// Shuffle pseudo-randomly reorders n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent child generator from the current state.
// Forked streams are used to give each experiment component its own
// stream so that adding draws in one component does not perturb others.
func (r *Source) Fork() *Source {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}
