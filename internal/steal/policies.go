package steal

// randomPolicy is uniform victim selection — the pre-refactor
// nextVictim path of core, reproduced bit for bit, and the base the
// other policies fall back to. All fields are owner-private per-worker
// state.
type randomPolicy struct {
	// woolvet:owner
	rng RNG
	// woolvet:owner
	self int
	// woolvet:owner
	n int
}

func (p *randomPolicy) Name() string { return Random }

// pick is the legacy nextVictim: one xorshift step, uniform over the
// n-1 non-self indices. With one worker it returns self and the
// caller's steal attempt fails on the victim==self check.
//
// woolvet:inline
// woolvet:noescape
func (p *randomPolicy) pick() int {
	if p.n <= 1 {
		return p.self
	}
	x := p.rng.Next()
	v := int(x % uint64(p.n-1))
	if v >= p.self {
		v++
	}
	return v
}

// Choose sits on every steal attempt of every backend: it ignores the
// probe and draws a fresh victim.
//
// woolvet:inline
// woolvet:noescape
func (p *randomPolicy) Choose(func(int) bool) int { return p.pick() }

// woolvet:inline
// woolvet:noescape
func (p *randomPolicy) Observe(int, bool) bool { return false }

// lastVictimPolicy layers last-successful-victim retention over
// randomPolicy — the retention logic that used to sit inline in core's
// chooseVictim/idleLoop, bit for bit (core's stealpolicy_compat_test.go
// keeps the replica). The retained victim is dropped at the first
// probe that finds nothing. The probed flag keeps the miss accounting
// identical to the legacy split: with a probe, a miss is found at
// Choose time (a failed CAS after a positive probe is a race, not a
// miss); without one (the simulator), it is found from Observe.
type lastVictimPolicy struct {
	randomPolicy
	// woolvet:owner
	last int
	// woolvet:owner
	probed bool
}

func (p *lastVictimPolicy) Name() string { return LastVictim }

// woolvet:noescape
func (p *lastVictimPolicy) Choose(stealable func(int) bool) int {
	p.probed = stealable != nil
	if lv := p.last; lv >= 0 && stealable != nil {
		if stealable(lv) {
			return lv
		}
		p.last = -1
	}
	return p.pick()
}

// Observe runs after every steal attempt, hit or miss; it must both
// inline and stay allocation-free.
//
// woolvet:inline
// woolvet:noescape
func (p *lastVictimPolicy) Observe(v int, ok bool) (retained bool) {
	if ok {
		retained = p.last == v
		p.last = v
		return retained
	}
	if !p.probed && v == p.last {
		p.last = -1
	}
	return false
}

// sequentialPolicy scans victims round-robin from the thief's right
// neighbour: fully deterministic, no RNG. A successful steal keeps the
// cursor on the yielding victim (a busy victim is robbed until dry, so
// steals cluster); a failure advances it past the victim just tried.
type sequentialPolicy struct {
	// woolvet:owner
	self int
	// woolvet:owner
	n int
	// woolvet:owner
	cur int
}

func (p *sequentialPolicy) Name() string { return Sequential }

// woolvet:inline
// woolvet:noescape
func (p *sequentialPolicy) Choose(func(int) bool) int { return p.cur }

// woolvet:inline
// woolvet:noescape
func (p *sequentialPolicy) Observe(v int, ok bool) bool {
	if ok || p.n <= 1 {
		return false
	}
	c := (v + 1) % p.n
	if c == p.self {
		c = (c + 1) % p.n
	}
	p.cur = c
	return false
}

// localizedPolicy steals from the h ring-nearest workers (offsets
// alternating +1, -1, +2, -2, ... around the worker ring), spilling to
// a uniformly random victim with fixed probability per attempt —
// localized work stealing with spill-out (arXiv:1804.04773). One RNG
// draw decides both the spill (high 32 bits against a fixed-point
// threshold) and the neighbour index (low 32 bits).
type localizedPolicy struct {
	randomPolicy
	// woolvet:owner
	h int
}

func (p *localizedPolicy) Name() string { return Localized }

// woolvet:noescape
func (p *localizedPolicy) Choose(func(int) bool) int {
	if p.n <= 1 {
		return p.self
	}
	if p.h >= p.n-1 {
		// Neighborhood covers the whole ring: identical to random.
		return p.pick()
	}
	x := p.rng.Next()
	if x>>32 < localizedSpill {
		return p.pick() // spill out: uniform over everyone
	}
	return neighbor(p.self, int(uint32(x))%p.h, p.n)
}

// neighbor returns the j-th of self's ring neighbours on an n-ring in
// the localized policy's order: +1, -1, +2, -2, ...
func neighbor(self, j, n int) int {
	d := j/2 + 1
	v := self
	if j&1 == 0 {
		v += d
	} else {
		v -= d
	}
	v %= n
	if v < 0 {
		v += n
	}
	return v
}
