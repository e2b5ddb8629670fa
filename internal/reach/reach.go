// Package reach computes the paper's reaching-probability and expected-
// distance matrices over the pruned dynamic CFG (HPCA'02 §3.1).
//
// RP(i,j) is the probability that, after executing block i, block j is
// executed before i is executed again — the paper's constraint that the
// source and destination appear only as the first and last nodes of each
// control-flow sequence, with every other block free to repeat. D(i,j)
// is the expected number of instructions executed from the first
// instruction of i (inclusive) to the first instruction of j
// (exclusive), conditioned on reaching j.
//
// # Exact formulation
//
// The computation is exact over the graph's Markov chain. For each
// source i the chain with transitions into i removed (taboo) has
// fundamental matrix Nᵢ = (I−Qᵢ)⁻¹, and:
//
//	F(u,j) = Nᵢ(u,j)/Nᵢ(j,j)            first-passage u→j avoiding i
//	RP(i,j) = Σ_v P(i→v)·F(v,j)
//
// Conditional distances come from the same factorisation via a
// Sherman–Morrison reduction: with Mᵢ = Nᵢ·diag(len)·Nᵢ,
//
//	g_j = Mᵢ(:,j)/Nᵢ(j,j) − Nᵢ(:,j)·len(j) − Nᵢ(:,j)·β_j
//
// accumulates the expected block lengths of intermediate nodes on
// successful paths, and D(i,j) = len(i) + Σ_v P(i→v)g_j(v) / RP(i,j).
// First-return pairs (i == j, the loop-iteration shape) use the hitting
// vector h = Nᵢ·P(:,i) on the same factorisation.
//
// # Shared factorisation
//
// Refactorising (I−Qᵢ) for every source costs O(n³) per node — O(n⁴)
// per CFG. Instead, the engine factorises the base chain A = I−P once
// and derives every taboo chain from it: zeroing row i and column i of
// P is the rank-2 update
//
//	A_i = A + U·Vᵀ,  U = [e_i, c'_i],  Vᵀ = [r_iᵀ; e_iᵀ]
//
// where r_i is row i of P and c'_i is column i of P with entry i
// zeroed. By the Woodbury identity, with N = A⁻¹ and M0 = N·diag(len)·N
// computed once,
//
//	Nᵢ = N − K·S⁻¹·W,   K = N·U,  W = Vᵀ·N,  S = I₂ + Vᵀ·K (2×2)
//	Mᵢ = M0 − K·T̃ − G·W  (rank-4, all pieces O(n²) per source)
//
// so every Nᵢ/Mᵢ entry the formulas above need is evaluated pointwise
// in O(1) from a handful of length-n vectors. Per-CFG cost collapses
// from O(n⁴) to O(n³) (one LU + one inverse + one blocked matmul), and
// the per-source fan-out is embarrassingly parallel: Compute distributes
// sources across a bounded worker group, each writing only its own rows
// of the result, so the parallel output is byte-identical to a serial
// run. All scratch comes from pooled linalg.Workspaces — steady-state
// computation performs no per-source allocation.
//
// ComputeDirect keeps the per-source factorisation as the reference
// implementation; Compute falls back to it (whole-graph, or per source)
// when the base chain is singular or too ill-conditioned for the
// low-rank updates to be trustworthy.
package reach

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/linalg"
	"repro/internal/sched"
)

// Result holds the dense pairwise matrices over graph nodes.
type Result struct {
	G *cfg.Graph
	// Prob[i][j] is RP(i,j) in [0,1].
	Prob *linalg.Matrix
	// Dist[i][j] is D(i,j) in instructions (0 where Prob is 0).
	Dist *linalg.Matrix
}

// ApproxBytes reports the result's resident size for cache accounting.
func (r *Result) ApproxBytes() int64 {
	var b int64 = 64
	if r.Prob != nil {
		b += r.Prob.ApproxBytes()
	}
	if r.Dist != nil {
		b += r.Dist.ApproxBytes()
	}
	return b
}

// damping is applied on a retry if a taboo chain is numerically
// singular (a closed recurrent class with no leak, which cannot arise
// from a terminating profile except through float round-off).
const damping = 1e-9

// condLimit bounds the base chain's ∞-norm condition estimate beyond
// which the shared-factorisation path hands the whole graph to the
// better-conditioned per-source reference path.
const condLimit = 1e12

// Options tunes Compute. The zero value selects the defaults: the
// per-source fan-out runs on the process-wide scheduler.
type Options struct {
	// Sched, when non-nil, is the work-stealing scheduler the
	// per-source fan-out (and the nested linalg tile fan-out) forks
	// into — normally the engine's scheduler, so reach work shares the
	// one core budget; a 1-worker scheduler runs serially. When nil,
	// sched.Default() is used. Output is byte-identical for every
	// scheduler size.
	Sched *sched.Scheduler
}

// Compute evaluates the exact reaching-probability and distance
// matrices for every ordered node pair of g using the shared-
// factorisation engine with default options.
func Compute(g *cfg.Graph) (*Result, error) { return ComputeOpts(g, Options{}) }

// wsPool amortises workspaces across Compute calls and workers.
var wsPool = sync.Pool{New: func() any { return linalg.NewWorkspace() }}

// ComputeOpts is Compute with explicit options.
func ComputeOpts(g *cfg.Graph, opts Options) (*Result, error) {
	n := len(g.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("reach: empty graph")
	}
	ws := wsPool.Get().(*linalg.Workspace)
	P := buildChain(g, ws)
	lens := ws.Vec(n)
	for i := 0; i < n; i++ {
		lens[i] = float64(g.Nodes[i].Len)
	}
	res := &Result{G: g, Prob: linalg.NewMatrix(n, n), Dist: linalg.NewMatrix(n, n)}

	s := opts.Sched
	if s == nil {
		s = sched.Default()
	}
	workers := min(s.Workers(), n)

	sc, ok := newSharedChain(P, lens, ws, s)
	if !ok {
		// Singular or ill-conditioned base chain: the rank-2 updates
		// would amplify factorisation error, so run the reference path.
		err := computeDirectInto(P, lens, res)
		ws.PutVec(lens)
		ws.PutMatrix(P)
		wsPool.Put(ws)
		return finish(res, err)
	}

	// Caller-participating claimer tasks on the scheduler: the caller
	// plus up to workers-1 group tasks claim sources from an atomic
	// counter, each with its own pooled workspace. Every source i is a
	// reservation of rows i of Prob/Dist — disjoint slots, so claim
	// order cannot affect the output.
	errs := make([]error, n)
	var next atomic.Int64
	claim := func() {
		wws := wsPool.Get().(*linalg.Workspace)
		ss := newSourceScratch(n, wws)
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			errs[i] = computeSource(sc, i, res.Prob.Row(i), res.Dist.Row(i), ss)
		}
		ss.release(wws)
		wsPool.Put(wws)
	}
	grp := s.NewGroup()
	for w := 0; w < workers-1; w++ {
		grp.Go("reach", claim)
	}
	claim()
	grp.Wait()
	var err error
	for i, serr := range errs {
		if serr != nil {
			err = fmt.Errorf("reach: source %d: %w", i, serr)
			break
		}
	}

	sc.release(ws)
	ws.PutVec(lens)
	ws.PutMatrix(P)
	wsPool.Put(ws)
	return finish(res, err)
}

func finish(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}

// buildChain derives the row-normalised transition matrix of the pruned
// graph. Rows are normalised by the node execution count, so flow that
// leaves the pruned graph (program exit or fully cold paths) appears as
// absorption.
func buildChain(g *cfg.Graph, ws *linalg.Workspace) *linalg.Matrix {
	n := len(g.Nodes)
	P := ws.Matrix(n, n)
	for i := 0; i < n; i++ {
		cnt := g.Nodes[i].Count
		if cnt <= 0 {
			continue
		}
		row := P.Row(i)
		for _, e := range g.Succ[i] {
			row[e.To] += e.W / cnt
		}
		// Guard against round-off pushing a row above 1.
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum > 1 {
			for j := range row {
				row[j] /= sum
			}
		}
	}
	return P
}

// sharedChain is the per-CFG state every source derives from: the base
// chain, its materialised fundamental matrix N = (I−P)⁻¹, the distance
// product M0 = N·diag(len)·N, and the column (predecessor) adjacency.
type sharedChain struct {
	n    int
	P    *linalg.Matrix
	lens []float64
	N    *linalg.Matrix
	M0   *linalg.Matrix
	// Column-sparse view of P excluding the diagonal: predecessors of
	// node i are predU[predIdx[i]:predIdx[i+1]] with probabilities
	// predP at the same positions.
	predIdx []int32
	predU   []int32
	predP   []float64
}

// newSharedChain factorises the base chain once and materialises the
// shared products — all through the packed register-blocked kernels,
// with the trailing-update fan-out forked onto s (1 worker = serial;
// deterministic: the products are byte-identical for every scheduler
// size). ok is false when the base chain is singular or so
// ill-conditioned that per-source refactorisation is the safer path.
func newSharedChain(P *linalg.Matrix, lens []float64, ws *linalg.Workspace, s *sched.Scheduler) (*sharedChain, bool) {
	n := P.Rows
	A := ws.Matrix(n, n)
	for r := 0; r < n; r++ {
		Arow := A.Row(r)
		Prow := P.Row(r)
		for c := 0; c < n; c++ {
			Arow[c] = -Prow[c]
		}
		Arow[r] += 1
	}
	lu := ws.LU(n)
	// Pooled LUs keep their scheduler across uses; set it so a stale
	// one never survives into this call.
	lu.Sched = s
	if err := lu.FactorInto(A); err != nil {
		ws.PutMatrix(A)
		ws.PutLU(lu)
		return nil, false
	}
	N := ws.Matrix(n, n)
	lu.InverseInto(N)
	ws.PutLU(lu)

	// ∞-norm condition estimate: beyond condLimit the O(εκ) error of
	// the shared inverse could exceed the engine's accuracy contract.
	normA, normN := normInf(A), normInf(N)
	ws.PutMatrix(A)
	if !(normN < math.Inf(1)) || normA*normN > condLimit {
		ws.PutMatrix(N)
		return nil, false
	}

	// M0 = N·diag(len)·N via one blocked multiply.
	ND := ws.Matrix(n, n)
	for r := 0; r < n; r++ {
		src := N.Row(r)
		dst := ND.Row(r)
		for c := 0; c < n; c++ {
			dst[c] = src[c] * lens[c]
		}
	}
	M0 := ws.Matrix(n, n)
	linalg.MulIntoSched(M0, ND, N, s, ws)
	ws.PutMatrix(ND)

	sc := &sharedChain{n: n, P: P, lens: lens, N: N, M0: M0}
	sc.predIdx = make([]int32, n+1)
	nnz := 0
	for u := 0; u < n; u++ {
		for c, v := range P.Row(u) {
			if v != 0 && c != u {
				nnz++
			}
		}
	}
	sc.predU = make([]int32, 0, nnz)
	sc.predP = make([]float64, 0, nnz)
	// Column-major fill: for each column i collect its off-diagonal
	// predecessors in ascending u order.
	for i := 0; i < n; i++ {
		for u := 0; u < n; u++ {
			if u == i {
				continue
			}
			if v := P.At(u, i); v != 0 {
				sc.predU = append(sc.predU, int32(u))
				sc.predP = append(sc.predP, v)
			}
		}
		sc.predIdx[i+1] = int32(len(sc.predU))
	}
	return sc, true
}

func (sc *sharedChain) release(ws *linalg.Workspace) {
	ws.PutMatrix(sc.N)
	ws.PutMatrix(sc.M0)
}

func normInf(m *linalg.Matrix) float64 {
	max := 0.0
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for _, v := range m.Row(r) {
			s += math.Abs(v)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// sourceScratch holds one worker's per-source vectors. All storage
// comes from (and returns to) a linalg.Workspace.
type sourceScratch struct {
	k1, k2, k2a, k2b []float64 // K = N·U and K·S⁻¹
	w1               []float64 // row 1 of W = Vᵀ·N (row 2 is N's row i)
	wl, wdn1         []float64 // (w1 ⊙ len) and (w1 ⊙ len)·N
	tta, ttb         []float64 // T̃ = S⁻¹·W·D·N − Z·W
	ndk1, ndk2       []float64 // N·diag(len)·K columns
	ga, gb           []float64 // G = N·diag(len)·K·S⁻¹
	h, y, gcirc      []float64 // first-return vectors
	srcIdx           []int32   // non-zero successor indices of the source
	srcP             []float64
}

func newSourceScratch(n int, ws *linalg.Workspace) *sourceScratch {
	return &sourceScratch{
		k1: ws.Vec(n), k2: ws.Vec(n), k2a: ws.Vec(n), k2b: ws.Vec(n),
		w1: ws.Vec(n), wl: ws.Vec(n), wdn1: ws.Vec(n),
		tta: ws.Vec(n), ttb: ws.Vec(n),
		ndk1: ws.Vec(n), ndk2: ws.Vec(n),
		ga: ws.Vec(n), gb: ws.Vec(n),
		h: ws.Vec(n), y: ws.Vec(n), gcirc: ws.Vec(n),
		srcIdx: make([]int32, 0, n), srcP: make([]float64, 0, n),
	}
}

func (ss *sourceScratch) release(ws *linalg.Workspace) {
	for _, v := range [][]float64{
		ss.k1, ss.k2, ss.k2a, ss.k2b, ss.w1, ss.wl, ss.wdn1,
		ss.tta, ss.ttb, ss.ndk1, ss.ndk2, ss.ga, ss.gb,
		ss.h, ss.y, ss.gcirc,
	} {
		ws.PutVec(v)
	}
}

// computeSource fills rows i of the probability and distance matrices
// from the shared factorisation in O(n²): a handful of dense
// vector-matrix products build the rank-2/rank-4 correction vectors,
// after which every Nᵢ/Mᵢ entry is a few fused multiply-adds.
func computeSource(sc *sharedChain, i int, probRow, distRow []float64, ss *sourceScratch) error {
	n := sc.n
	N, M0, lens := sc.N, sc.M0, sc.lens
	srcRow := sc.P.Row(i)
	w2 := N.Row(i)   // row 2 of W is N's row i
	m0i := M0.Row(i) // row 2 of W·D·N is M0's row i

	// Sparse successor list of the source (ascending order, matching
	// the reference path's dense iteration).
	ss.srcIdx, ss.srcP = ss.srcIdx[:0], ss.srcP[:0]
	for v, pv := range srcRow {
		if pv != 0 {
			ss.srcIdx = append(ss.srcIdx, int32(v))
			ss.srcP = append(ss.srcP, pv)
		}
	}

	// K = N·U: k1 = N(:,i); k2 = N·c'_i over the sparse predecessors.
	k1, k2 := ss.k1, ss.k2
	for v := 0; v < n; v++ {
		k1[v] = N.At(v, i)
		k2[v] = 0
	}
	// Accumulate k2 row-wise for cache friendliness: k2[v] = Σ_u p·N(v,u).
	pb, pe := sc.predIdx[i], sc.predIdx[i+1]
	for v := 0; v < n; v++ {
		row := N.Row(v)
		s := 0.0
		for e := pb; e < pe; e++ {
			s += sc.predP[e] * row[sc.predU[e]]
		}
		k2[v] = s
	}

	// W row 1 = r_iᵀ·N over the sparse successors.
	w1 := ss.w1
	for u := range w1 {
		w1[u] = 0
	}
	for e, v := range ss.srcIdx {
		linalg.Axpy(ss.srcP[e], N.Row(int(v)), w1)
	}

	// Capture matrix S = I₂ + Vᵀ·K and its inverse.
	s00, s01 := 1.0, 0.0
	for e, v := range ss.srcIdx {
		pv := ss.srcP[e]
		s00 += pv * k1[v]
		s01 += pv * k2[v]
	}
	s10, s11 := k1[i], 1+k2[i]
	det := s00*s11 - s01*s10
	norm := math.Max(math.Max(math.Abs(s00), math.Abs(s01)), math.Max(math.Abs(s10), math.Abs(s11)))
	if norm < 1 {
		norm = 1
	}
	if math.Abs(det) < 1e-12*norm*norm || math.IsNaN(det) {
		// The taboo chain is (numerically) singular under the low-rank
		// update; refactorise this source directly, with the reference
		// path's damping retry.
		return computeSourceDirect(sc.P, lens, i, probRow, distRow)
	}
	si00, si01 := s11/det, -s01/det
	si10, si11 := -s10/det, s00/det

	// K·S⁻¹ — the rank-2 correction of Nᵢ: Nᵢ(v,u) = N(v,u) − k2a[v]·w1[u] − k2b[v]·w2[u].
	k2a, k2b := ss.k2a, ss.k2b
	for v := 0; v < n; v++ {
		k2a[v] = k1[v]*si00 + k2[v]*si10
		k2b[v] = k1[v]*si01 + k2[v]*si11
	}

	// Rank-4 pieces of Mᵢ = M0 − K·T̃ − G·W.
	wl := ss.wl
	for v := 0; v < n; v++ {
		wl[v] = w1[v] * lens[v]
	}
	N.MulVecT(wl, ss.wdn1) // (W·D·N) row 1; row 2 is M0's row i
	wdk00, wdk01, wdk10, wdk11 := 0.0, 0.0, 0.0, 0.0
	for v := 0; v < n; v++ {
		nl := w2[v] * lens[v]
		wdk00 += wl[v] * k1[v]
		wdk01 += wl[v] * k2[v]
		wdk10 += nl * k1[v]
		wdk11 += nl * k2[v]
	}
	// Z = S⁻¹·(W·D·K)·S⁻¹ (2×2).
	u00 := si00*wdk00 + si01*wdk10
	u01 := si00*wdk01 + si01*wdk11
	u10 := si10*wdk00 + si11*wdk10
	u11 := si10*wdk01 + si11*wdk11
	z00, z01 := u00*si00+u01*si10, u00*si01+u01*si11
	z10, z11 := u10*si00+u11*si10, u10*si01+u11*si11
	tta, ttb := ss.tta, ss.ttb
	for u := 0; u < n; u++ {
		t1a := si00*ss.wdn1[u] + si01*m0i[u]
		t1b := si10*ss.wdn1[u] + si11*m0i[u]
		tta[u] = t1a - (z00*w1[u] + z01*w2[u])
		ttb[u] = t1b - (z10*w1[u] + z11*w2[u])
	}
	// G = (N·D·K)·S⁻¹: column 1 of N·D·K is M0(:,i), column 2 is N·(len ⊙ k2).
	ndk1, ndk2 := ss.ndk1, ss.ndk2
	for v := 0; v < n; v++ {
		ndk1[v] = M0.At(v, i)
		ss.y[v] = lens[v] * k2[v] // reuse y as the (len ⊙ k2) operand
	}
	N.MulVec(ss.y, ndk2)
	ga, gb := ss.ga, ss.gb
	for v := 0; v < n; v++ {
		ga[v] = ndk1[v]*si00 + ndk2[v]*si10
		gb[v] = ndk1[v]*si01 + ndk2[v]*si11
	}

	// Pointwise evaluators for the derived matrices.
	niAt := func(v, u int) float64 {
		return N.At(v, u) - k2a[v]*w1[u] - k2b[v]*w2[u]
	}
	miAt := func(v, j int) float64 {
		return M0.At(v, j) - k1[v]*tta[j] - k2[v]*ttb[j] - ga[v]*w1[j] - gb[v]*w2[j]
	}

	// j == i: first-return probability and distance.
	// h = Nᵢ·c'_i = k2 − K·S⁻¹·(W·c'_i).
	wc1, wc2 := 0.0, 0.0
	for e := pb; e < pe; e++ {
		u, p := int(sc.predU[e]), sc.predP[e]
		wc1 += p * w1[u]
		wc2 += p * w2[u]
	}
	q1 := si00*wc1 + si01*wc2
	q2 := si10*wc1 + si11*wc2
	h := ss.h
	for v := 0; v < n; v++ {
		h[v] = k2[v] - k1[v]*q1 - k2[v]*q2
	}
	// g° = Nᵢ·(len ⊙ h) with the taboo column zeroed.
	y := ss.y
	for u := 0; u < n; u++ {
		y[u] = lens[u] * h[u]
	}
	y[i] = 0
	N.MulVec(y, ss.gcirc) // N·y, corrected below
	wy1, wy2 := 0.0, 0.0
	for u := 0; u < n; u++ {
		wy1 += w1[u] * y[u]
		wy2 += w2[u] * y[u]
	}
	r1 := si00*wy1 + si01*wy2
	r2 := si10*wy1 + si11*wy2
	gcirc := ss.gcirc
	for v := 0; v < n; v++ {
		gcirc[v] -= k1[v]*r1 + k2[v]*r2
	}
	rpII := srcRow[i] // immediate self-loop: success, no intermediates
	numII := 0.0
	for e, v32 := range ss.srcIdx {
		v := int(v32)
		if v == i {
			continue
		}
		pv := ss.srcP[e]
		rpII += pv * h[v]
		numII += pv * gcirc[v]
	}
	probRow[i] = clamp01(rpII)
	// Same guard as the j != i pairs: a return probability at round-off
	// scale would make numII/rpII a noise ratio (and the two engines
	// disagree on noise), so such pairs report distance 0 like any other
	// unreachable pair.
	if rpII > 1e-12 {
		distRow[i] = lens[i] + numII/rpII
	}

	// j != i.
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		njj := niAt(j, j)
		if njj <= 0 {
			continue
		}
		invjj := 1 / njj
		lj := lens[j]
		// β = (q_jᵀ·x)/njj, q_j = row j of the taboo chain (col i zeroed),
		// x(v) = Mᵢ(v,j)/njj − Nᵢ(v,j)·len(j).
		beta := 0.0
		Pj := sc.P.Row(j)
		for v := 0; v < n; v++ {
			pv := Pj[v]
			if pv == 0 || v == i {
				continue
			}
			beta += pv * (miAt(v, j)*invjj - niAt(v, j)*lj)
		}
		beta *= invjj

		rp := 0.0
		num := 0.0
		for e, v32 := range ss.srcIdx {
			v := int(v32)
			if v == i {
				continue
			}
			pv := ss.srcP[e]
			if v == j {
				rp += pv // direct hit, no intermediates
				continue
			}
			nvj := niAt(v, j)
			rp += pv * nvj * invjj
			// g_j(v) = x(v) − Nᵢ(v,j)·β
			num += pv * (miAt(v, j)*invjj - nvj*lj - nvj*beta)
		}
		probRow[j] = clamp01(rp)
		if rp > 1e-12 {
			d := lens[i] + num/rp
			if d < lens[i] {
				d = lens[i]
			}
			distRow[j] = d
		}
	}
	return nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
