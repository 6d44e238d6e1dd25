package sim

// RNG is a small deterministic pseudo-random number generator
// (xorshift64*), used wherever a simulation needs randomness. Using our own
// generator rather than math/rand pins the byte streams across Go releases,
// keeping recorded experiment outputs stable.
type RNG struct {
	state uint64
}

// Reseed restarts the generator's stream from seed, allowing a long-lived
// simulation component to be reset in place. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func (r *RNG) Reseed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.state = seed
}

// State exposes the raw generator state for checkpointing. Pair with
// SetState to rewind a long-lived simulation component to a captured
// mid-stream position (Reseed can only rewind to a stream's start).
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state captured by State. A zero value is remapped like
// Reseed's zero seed; it cannot arise from a live generator (xorshift never
// reaches the all-zero fixed point from a non-zero state), so the remap only
// guards a zero-value snapshot.
func (r *RNG) SetState(state uint64) {
	if state == 0 {
		state = 0x9E3779B97F4A7C15
	}
	r.state = state
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
