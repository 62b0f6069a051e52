// Batched static-stage inference with cross-grid feature reuse.
//
// The scan engine recombines the same vectors combinatorially: every CVE
// reference (× two query modes) is scored against every function of every
// firmware image, in both symmetrized pair orders. The pieces here cache
// everything that does not depend on the specific (query, target) pair:
//
//   - TargetSet: per image, every function vector normalized ONCE and
//     pushed through both halves of the model's first layer ONCE. The
//     halves are reused across all CVEs, both query modes, and both pair
//     orders — the dominant first-layer cost drops from
//     2·CVEs·modes·funcs half-GEMVs to 2·funcs.
//   - QueryHalves: the same two half-GEMVs for a query vector, computed
//     once per (CVE, mode) and reused across every image and worker.
//   - Scorer: a per-worker scoring context whose forward passes run
//     entirely in reusable scratch buffers — steady-state candidate
//     scoring performs zero heap allocations. Each pass is sparse in the
//     activations (nn.InferLogitSparse): after every ReLU only the
//     surviving entries are carried into the next layer, so the roughly
//     half of each hidden layer that ReLU zeroes costs no multiplies.
//
// All scoring uses the canonical split accumulation order shared with
// Model.Similarity (see package nn), so batched results are bit-identical
// to the scalar path: same scores, same thresholds, same candidate order.
package detector

import (
	"slices"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
)

// TargetSet is the batched static stage's per-image precomputation: each
// target function's normalized vector pushed through both halves of the
// model's first layer. Build one per prepared image with PrepareTargets
// and reuse it for every (CVE, mode) scored against the image; it is
// immutable after construction and safe for concurrent use.
type TargetSet struct {
	n     int
	width int       // first-layer output width
	first []float64 // n×width: bias + W[:, :48]·t (target in first pair position)
	sec   []float64 // n×width: W[:, 48:]·t (target in second pair position)
}

// Len returns the number of prepared target functions.
func (ts *TargetSet) Len() int { return ts.n }

func (ts *TargetSet) firstHalf(i int) []float64  { return ts.first[i*ts.width : (i+1)*ts.width] }
func (ts *TargetSet) secondHalf(i int) []float64 { return ts.sec[i*ts.width : (i+1)*ts.width] }

// PrepareTargets normalizes every target vector once and precomputes its
// two first-layer halves.
func (m *Model) PrepareTargets(targets []features.Vector) *TargetSet {
	l0 := m.Net.Layers[0]
	ts := &TargetSet{
		n:     len(targets),
		width: l0.Out,
		first: make([]float64, len(targets)*l0.Out),
		sec:   make([]float64, len(targets)*l0.Out),
	}
	norm := make([]float64, features.NumStatic)
	for i, tv := range targets {
		m.Norm.ApplyInto(norm, tv)
		l0.HalfApplyInto(ts.firstHalf(i), norm, 0, true)
		l0.HalfApplyInto(ts.secondHalf(i), norm, features.NumStatic, false)
	}
	return ts
}

// QueryHalves is a query vector's first-layer precomputation, the
// per-(CVE, mode) counterpart of a TargetSet entry. Immutable after
// construction and safe for concurrent use.
type QueryHalves struct {
	first  []float64 // bias + W[:, :48]·q
	second []float64 // W[:, 48:]·q
}

// PrepareQuery normalizes the query once and precomputes its two
// first-layer halves.
func (m *Model) PrepareQuery(query features.Vector) *QueryHalves {
	l0 := m.Net.Layers[0]
	q := &QueryHalves{
		first:  make([]float64, l0.Out),
		second: make([]float64, l0.Out),
	}
	norm := make([]float64, features.NumStatic)
	m.Norm.ApplyInto(norm, query)
	l0.HalfApplyInto(q.first, norm, 0, true)
	l0.HalfApplyInto(q.second, norm, features.NumStatic, false)
	return q
}

// Scorer is a reusable scoring context for the batched static stage. It
// owns the forward-pass scratch buffers and the candidate output buffer,
// so steady-state scoring allocates nothing. A Scorer is NOT safe for
// concurrent use; the scan engine keeps one per worker goroutine.
type Scorer struct {
	model   *Model
	scratch *nn.Scratch
	out     []Candidate
	obs     *obs.Metrics
}

// NewScorer builds a scoring context for the model.
func (m *Model) NewScorer() *Scorer {
	return &Scorer{model: m, scratch: m.Net.NewScratch()}
}

// Observe attaches a metrics sink (nil for the no-op default) and returns
// the Scorer. Candidates then counts pairs scored and candidates surviving
// the cutoff in two bulk adds per call — nothing per pair.
func (s *Scorer) Observe(o *obs.Metrics) *Scorer {
	s.obs = o
	return s
}

// Pair scores prepared target i against the prepared query, symmetrized
// over both input orders — bit-identical to Model.Similarity on the raw
// vectors. The two directions run one after the other: their sparsity
// patterns differ, so there are no weight rows to share between them.
func (s *Scorer) Pair(q *QueryHalves, ts *TargetSet, i int) float64 {
	net := s.model.Net
	lqt := net.InferLogitSparse(s.scratch, q.first, ts.secondHalf(i))
	ltq := net.InferLogitSparse(s.scratch, ts.firstHalf(i), q.second)
	return (nn.Sigmoid(lqt) + nn.Sigmoid(ltq)) / 2
}

// Candidates is the batched equivalent of Model.Candidates: it scores every
// prepared target against the prepared query and returns those above the
// model threshold, highest score first (ties by index). The returned slice
// is owned by the Scorer and valid only until its next Candidates call —
// callers that keep candidates must copy them out.
func (s *Scorer) Candidates(q *QueryHalves, ts *TargetSet) []Candidate {
	out := s.out[:0]
	for i := 0; i < ts.Len(); i++ {
		if sc := s.Pair(q, ts, i); sc >= s.model.Threshold {
			out = append(out, Candidate{Index: i, Score: sc})
		}
	}
	// Same total order as the scalar path's sort: score descending, index
	// ascending — ties cannot survive, so any sorting algorithm yields the
	// identical permutation. slices.SortFunc does not allocate.
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return a.Index - b.Index
	})
	s.out = out
	s.obs.Add(obs.CtrPairsScored, int64(ts.Len()))
	s.obs.Add(obs.CtrStaticCandidates, int64(len(out)))
	return out
}
