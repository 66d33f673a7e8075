package sim

// spanOverhead is the O of the realistic span model: the paper's 2000
// cycles of load-balancing overhead per parallel composition.
const spanOverhead = 2000

// spanTracker measures work (T1) and critical path (T∞) during a
// single-processor simulated run, in virtual cycles, under both the
// paper's cost models: the abstract one (load balancing is free; a
// join contributes max(continuation, child)) and the realistic one
// (parallel composition only when it saves at least spanOverhead
// cycles, and then it costs an extra spanOverhead on the critical
// path). It produces the parallelism columns of Table I
// deterministically.
type spanTracker struct {
	frames []spanFrame
	marks  []spanMark

	// strand accumulates Work() cycles since the last boundary; spawn
	// and join costs charged by the protocol also land here through
	// the frame accounting below.
	strand uint64

	work, span0, spanO uint64
}

type spanFrame struct {
	span0, spanO uint64
	markBase     int
}

type spanMark struct {
	span0, spanO uint64
}

func (st *spanTracker) begin() {
	st.frames = st.frames[:0]
	st.marks = st.marks[:0]
	st.strand = 0
	st.work = 0
	st.frames = append(st.frames, spanFrame{})
}

func (st *spanTracker) closeStrand() {
	d := st.strand
	st.strand = 0
	f := &st.frames[len(st.frames)-1]
	f.span0 += d
	f.spanO += d
	st.work += d
}

func (st *spanTracker) onSpawn() {
	st.closeStrand()
	f := &st.frames[len(st.frames)-1]
	st.marks = append(st.marks, spanMark{span0: f.span0, spanO: f.spanO})
}

func (st *spanTracker) onJoinStart() {
	st.closeStrand()
	st.frames = append(st.frames, spanFrame{markBase: len(st.marks)})
}

func (st *spanTracker) onJoinEnd() {
	st.closeStrand()
	child := st.frames[len(st.frames)-1]
	if len(st.marks) != child.markBase {
		panic("sim: span tracker: task returned with unjoined spawns")
	}
	st.frames = st.frames[:len(st.frames)-1]
	f := &st.frames[len(st.frames)-1]
	m := st.marks[len(st.marks)-1]
	st.marks = st.marks[:len(st.marks)-1]

	k0 := f.span0 - m.span0
	if child.span0 > k0 {
		f.span0 = m.span0 + child.span0
	}

	kO := f.spanO - m.spanO
	cO := child.spanO
	if min64(kO, cO) < spanOverhead {
		f.spanO = m.spanO + kO + cO
	} else {
		f.spanO = m.spanO + max64(kO, cO) + spanOverhead
	}
}

func (st *spanTracker) end(w *W) {
	st.closeStrand()
	if len(st.frames) != 1 {
		panic("sim: span tracker: unbalanced task nesting at end")
	}
	st.span0 = st.frames[0].span0
	st.spanO = st.frames[0].spanO
}

// Protocol hooks: only active when the machine tracks span.

func (w *W) spanSpawn() {
	if w.m.span != nil {
		w.m.span.onSpawn()
	}
}

func (w *W) spanJoinStart() {
	if w.m.span != nil {
		w.m.span.onJoinStart()
	}
}

func (w *W) spanJoinEnd() {
	if w.m.span != nil {
		w.m.span.onJoinEnd()
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
