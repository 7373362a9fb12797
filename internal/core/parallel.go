package core

import "fmt"

// sequentialFallback returns the reason a parallel query must delegate to
// the sequential driver, or "" when the parallel scheduler applies.
func sequentialFallback(opts Options) string {
	if opts.Algorithm == BK || opts.Algorithm == BKPivot {
		return fmt.Sprintf("%v runs as a single whole-graph branch", opts.Algorithm)
	}
	return ""
}

// configureEngine applies the per-algorithm recursion selection shared by
// the sequential and parallel drivers.
func configureEngine(e *engine, opts Options) {
	switch opts.Algorithm {
	case BK:
		e.inner = innerPlain
	case BKPivot, BKDegen, BKDegree:
		e.inner = InnerPivot
	case BKRef:
		e.inner = InnerRef
	case BKRcd:
		e.inner = InnerRcd
	case BKFac:
		e.inner = InnerFac
	case HBBMC:
		e.inner = opts.Inner
		e.switchDepth = opts.SwitchDepth
	case EBBMC:
		e.inner = InnerPivot // unused: the recursion stays edge-oriented
		e.switchDepth = neverSwitch
	}
}

// runVertexOrderedRange is the ordered top-level split (Eq. 1) restricted
// to ordering positions [begin, end). The sequential driver passes the
// whole range, the dynamic scheduler one position at a time. Cancellation
// and early stops are observed once per top-level branch.
//
// Each branch universe is laid out candidates-first (later neighbors of v,
// then earlier ones), mirroring the edge-oriented top level: exclusion
// members only need adjacency rows of their own to compete as Tomita
// pivots, so their rows — the dominant share of the build cost around hubs,
// whose earlier-neighbor side is unbounded by δ — are built only when the
// branch is recursion-heavy enough for pivot quality to pay for them.
//
//hbbmc:ctxpoll
func (e *engine) runVertexOrderedRange(ord, pos []int32, begin, end int) {
	for i := begin; i < end; i++ {
		if e.rc.halted() {
			return
		}
		v := ord[i]
		nbrs := e.g.Neighbors(v)
		pv := pos[v]
		e.listBuf = e.listBuf[:0]
		for _, w := range nbrs {
			if pos[w] > pv {
				e.listBuf = append(e.listBuf, w)
			}
		}
		inC := len(e.listBuf)
		for _, w := range nbrs {
			if pos[w] <= pv {
				e.listBuf = append(e.listBuf, w)
			}
		}
		rowCount := inC
		if withXRows(inC, len(nbrs)) {
			rowCount = len(nbrs)
		}
		e.setUniverse(e.listBuf, -1, rowCount)
		C := e.setArena.Get()
		X := e.setArena.Get()
		for j := 0; j < inC; j++ {
			C.Set(j)
		}
		for j := inC; j < len(nbrs); j++ {
			X.Set(j)
		}
		e.S = append(e.S[:0], v)
		e.stats.TopBranches++
		e.vertexRec(nil, C, X)
	}
}

// runEdgeOrderedSched processes the edge-order positions sched[begin:end]
// (raw positions [begin, end) when sched is nil) — the cost-ordered variant
// the dynamic scheduler feeds with contiguous chunks.
//
//hbbmc:ctxpoll
func (e *engine) runEdgeOrderedSched(sched []int32, begin, end int) {
	for i := begin; i < end; i++ {
		if e.rc.halted() {
			return
		}
		p := i
		if sched != nil {
			p = int(sched[i])
		}
		e.runEdgeBranch(e.eo.Order[p])
	}
}

// runVertexOrderedSched is runEdgeOrderedSched's vertex-ordered sibling.
//
//hbbmc:ctxpoll
func (e *engine) runVertexOrderedSched(ord, pos, sched []int32, begin, end int) {
	for i := begin; i < end; i++ {
		if e.rc.halted() {
			return
		}
		p := i
		if sched != nil {
			p = int(sched[i])
		}
		e.runVertexOrderedRange(ord, pos, p, p+1)
	}
}

// merge folds worker counters into s.
func (s *Stats) merge(o *Stats) {
	s.Cliques += o.Cliques
	if o.MaxCliqueSize > s.MaxCliqueSize {
		s.MaxCliqueSize = o.MaxCliqueSize
	}
	s.Calls += o.Calls
	s.VertexCalls += o.VertexCalls
	s.EdgeCalls += o.EdgeCalls
	s.TopBranches += o.TopBranches
	s.PlexBranches += o.PlexBranches
	s.EarlyTerminations += o.EarlyTerminations
	s.ETCliques += o.ETCliques
	s.SuppressedLeaves += o.SuppressedLeaves
	s.BnBCalls += o.BnBCalls
	s.BnBPrunes += o.BnBPrunes
	s.IncumbentUpdates += o.IncumbentUpdates
	s.KCliques += o.KCliques
	s.UniverseTime += o.UniverseTime
	s.PivotTime += o.PivotTime
	s.ETTime += o.ETTime
	s.EmitTime += o.EmitTime
}
