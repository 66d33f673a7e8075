package cholesky

import (
	"gowool/internal/sched"
)

// Parallel factorization, generic over the scheduler. The cholesky
// chain itself is a sequential dependency (L00 → L10 → update → L11);
// the parallelism lives in backsub and mulsub, which fork over
// quadrants — the "explicit nested tasks" of the paper's benchmark
// description.
//
// Task arguments are node indices packed into the descriptors' int64
// slots, so no allocation happens on the spawn path; fill-in nodes
// come from the arena's atomic bump allocator. The body is written
// once here and instantiated per scheduler by handing New the
// scheduler's DefineC3-style constructor: core, chaselev, locksched,
// and the simulator's (NewSim, sim.go).

// pack2 packs two node indices into one int64 argument slot.
func pack2(a, b int32) int64 { return int64(uint64(uint32(a))<<32 | uint64(uint32(b))) }

// unpack2 reverses pack2.
func unpack2(v int64) (int32, int32) { return int32(uint64(v) >> 32), int32(uint32(uint64(v))) }

// packMeta packs a result-node index, subtree size and the lower flag.
func packMeta(r int32, size int64, lower bool) int64 {
	m := int64(uint32(r)) | size<<32
	if lower {
		m |= 1 << 62
	}
	return m
}

// unpackMeta reverses packMeta.
func unpackMeta(m int64) (r int32, size int64, lower bool) {
	r = int32(uint32(uint64(m)))
	size = (m >> 32) & 0x3fffffff
	lower = m&(1<<62) != 0
	return
}

// Sched bundles the task definitions of the parallel factorization
// for one scheduler: W is the scheduler's worker type, D its
// context-carrying three-argument task definition.
type Sched[W any, D sched.TaskC3[W, Arena]] struct {
	backsub D
	// mulsub computes r −= a1·b1ᵀ + a2·b2ᵀ (second product optional):
	// args are (meta, pack2(a1,b1), pack2(a2,b2)).
	mulsub D
	// cycles charges a block kernel's virtual cost to the worker; nil
	// on native pools, where the kernels' time is their own.
	cycles func(W, uint64)
}

// New builds the task definitions from a scheduler's DefineC3-style
// constructor; W and D are inferred from it, e.g.
// New(core.DefineC3[cholesky.Arena]).
func New[W any, D sched.TaskC3[W, Arena]](define func(string, func(W, *Arena, int64, int64, int64) int64) D) *Sched[W, D] {
	s := &Sched[W, D]{}
	s.backsub = define("chol-backsub", func(w W, ar *Arena, a, l, size int64) int64 {
		return int64(s.backsubStep(w, ar, int32(a), int32(l), size))
	})
	s.mulsub = define("chol-mulsub", func(w W, ar *Arena, meta, ab1, ab2 int64) int64 {
		r, size, lower := unpackMeta(meta)
		a1, b1 := unpack2(ab1)
		a2, b2 := unpack2(ab2)
		r = s.mulsubStep(w, ar, r, a1, b1, size, lower)
		r = s.mulsubStep(w, ar, r, a2, b2, size, lower)
		return int64(r)
	})
	return s
}

// Factor factors m, driven by the pool's Run entry point (e.g.
// p.Run as a method value).
func (s *Sched[W, D]) Factor(run func(func(W) int64) int64, m *Matrix) {
	run(func(w W) int64 {
		m.Root = s.chol(w, m.Ar, m.Root, m.Ar.Size)
		return 0
	})
}

// charge bills a block kernel's cycles where a cost hook is set.
func (s *Sched[W, D]) charge(w W, cycles uint64) {
	if s.cycles != nil {
		s.cycles(w, cycles)
	}
}

// chol is the sequential factorization chain over the diagonal.
func (s *Sched[W, D]) chol(w W, ar *Arena, a int32, size int64) int32 {
	if a == 0 {
		panic("cholesky: zero diagonal block (matrix is singular)")
	}
	if size == Block {
		blockCholesky(ar.Tile(a))
		s.charge(w, CholeskyKernelCycles)
		return a
	}
	n := ar.Node(a)
	half := size / 2
	n.Child[q00] = s.chol(w, ar, n.Child[q00], half)
	n.Child[q10] = int32(s.backsub.Call(w, ar, int64(n.Child[q10]), int64(n.Child[q00]), half))
	n.Child[q11] = s.mulsubStep(w, ar, n.Child[q11], n.Child[q10], n.Child[q10], half, true)
	n.Child[q11] = s.chol(w, ar, n.Child[q11], half)
	return a
}

// backsubStep forks the quadrant structure of backsub.
func (s *Sched[W, D]) backsubStep(w W, ar *Arena, a, l int32, size int64) int32 {
	if a == 0 {
		return 0
	}
	if size == Block {
		blockBacksub(ar.Tile(a), ar.Tile(l))
		s.charge(w, BacksubKernelCycles)
		return a
	}
	na, nl := ar.Node(a), ar.Node(l)
	half := size / 2
	l00, l10, l11 := nl.Child[q00], nl.Child[q10], nl.Child[q11]

	// Left column against L00, in parallel.
	s.backsub.Spawn(w, ar, int64(na.Child[q00]), int64(l00), half)
	x10 := int32(s.backsub.Call(w, ar, int64(na.Child[q10]), int64(l00), half))
	x00 := int32(s.backsub.Join(w))
	na.Child[q00], na.Child[q10] = x00, x10

	// Eliminate the L10 coupling, both halves in parallel.
	s.mulsub.Spawn(w, ar, packMeta(na.Child[q01], half, false), pack2(x00, l10), 0)
	r11 := int32(s.mulsub.Call(w, ar, packMeta(na.Child[q11], half, false), pack2(x10, l10), 0))
	r01 := int32(s.mulsub.Join(w))

	// Right column against L11, in parallel.
	s.backsub.Spawn(w, ar, int64(r01), int64(l11), half)
	x11 := int32(s.backsub.Call(w, ar, int64(r11), int64(l11), half))
	x01 := int32(s.backsub.Join(w))
	na.Child[q01], na.Child[q11] = x01, x11
	return a
}

// mulsubStep forks the quadrants of r −= a·bᵀ; each quadrant task
// folds its two sub-products sequentially (and recursively in
// parallel below). Join order mirrors the LIFO spawn order.
func (s *Sched[W, D]) mulsubStep(w W, ar *Arena, r, a, b int32, size int64, lower bool) int32 {
	if a == 0 || b == 0 {
		return r
	}
	if size == Block {
		if r == 0 {
			r = ar.NewLeaf()
		}
		blockMulSub(ar.Tile(r), ar.Tile(a), ar.Tile(b), lower)
		if lower {
			s.charge(w, MulSubKernelCycles/2)
		} else {
			s.charge(w, MulSubKernelCycles)
		}
		return r
	}
	if r == 0 {
		r = ar.NewNode()
	}
	nr, na, nb := ar.Node(r), ar.Node(a), ar.Node(b)
	half := size / 2

	s.mulsub.Spawn(w, ar, packMeta(nr.Child[q00], half, lower),
		pack2(na.Child[q00], nb.Child[q00]), pack2(na.Child[q01], nb.Child[q01]))
	if !lower {
		s.mulsub.Spawn(w, ar, packMeta(nr.Child[q01], half, false),
			pack2(na.Child[q00], nb.Child[q10]), pack2(na.Child[q01], nb.Child[q11]))
	}
	s.mulsub.Spawn(w, ar, packMeta(nr.Child[q10], half, false),
		pack2(na.Child[q10], nb.Child[q00]), pack2(na.Child[q11], nb.Child[q01]))
	r11 := int32(s.mulsub.Call(w, ar, packMeta(nr.Child[q11], half, lower),
		pack2(na.Child[q10], nb.Child[q10]), pack2(na.Child[q11], nb.Child[q11])))

	r10 := int32(s.mulsub.Join(w))
	r01 := nr.Child[q01]
	if !lower {
		r01 = int32(s.mulsub.Join(w))
	}
	r00 := int32(s.mulsub.Join(w))
	nr.Child[q00], nr.Child[q01], nr.Child[q10], nr.Child[q11] = r00, r01, r10, r11
	return r
}
