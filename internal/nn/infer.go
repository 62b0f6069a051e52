// Split-input inference: the static stage's hot path.
//
// PATCHECKO's similarity model scores a PAIR input [a;b] — two halves that
// the scan engine recombines combinatorially (every CVE reference against
// every firmware function, in both symmetrized orders). For the first dense
// layer the algebra factors per half:
//
//	y1 = W·[a;b] + bias = (bias + W[:, :48]·a) + (W[:, 48:]·b)
//
// so each half's contribution can be computed once and reused across every
// pair it appears in. The functions here fix ONE canonical floating-point
// accumulation order for that factored form — each half is accumulated
// sequentially on its own (the first-position half starting from the bias,
// the second-position half from zero) and the two partial sums are added —
// and provide two implementations of it:
//
//   - HalfApply + InferLogitSplit: the plain dense reference
//     implementation, allocating as it goes. This is what Model.Similarity
//     uses, and the oracle the engine implementation is tested against.
//   - HalfApplyInto + Scratch + InferLogitSparse: the engine
//     implementation — allocation-free with caller-owned buffers, and
//     sparse in the activations: about half of every hidden layer is an
//     exact ReLU zero, so after each ReLU the surviving entries are
//     compacted and the next layer accumulates only those. Every row still
//     adds its nonzero terms in the reference's order, and a skipped
//     w·(±0) term cannot change a nonzero sum, so for finite weights the
//     two implementations produce bit-identical logits; the batched scan
//     path is byte-for-byte the scalar path, only faster.
//
// Note the split order is NOT bit-identical to InferLogit on the
// concatenated 96-dim input (the 49th addend lands on a different partial
// sum), which is why Model.Similarity and the Scorer both standardize on
// the split order instead.
package nn

// HalfApply computes one layer's partial response to the input columns
// [off, off+len(x)): out[o] = base + Σ_j W[o][off+j]·x[j], where base is
// B[o] when withBias is set and 0 otherwise. Accumulation is sequential in
// j per output row. This is the reference implementation; HalfApplyInto is
// the allocation-free equivalent.
func (d *Dense) HalfApply(x []float64, off int, withBias bool) []float64 {
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In+off : o*d.In+off+len(x)]
		s := 0.0
		if withBias {
			s = d.B[o]
		}
		for j, xj := range x {
			s += row[j] * xj
		}
		y[o] = s
	}
	return y
}

// HalfApplyInto is HalfApply into a caller-owned buffer of length d.Out.
// The inner loop runs four output rows per pass — four independent
// accumulators that share each load of x and overlap their add-latency
// chains, each still strictly sequential in j, so results are bit-identical
// to HalfApply.
func (d *Dense) HalfApplyInto(dst, x []float64, off int, withBias bool) {
	n := len(x)
	o := 0
	for ; o+3 < d.Out; o += 4 {
		r0 := d.W[o*d.In+off : o*d.In+off+n]
		r1 := d.W[(o+1)*d.In+off : (o+1)*d.In+off+n]
		r2 := d.W[(o+2)*d.In+off : (o+2)*d.In+off+n]
		r3 := d.W[(o+3)*d.In+off : (o+3)*d.In+off+n]
		var s0, s1, s2, s3 float64
		if withBias {
			s0, s1, s2, s3 = d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
		}
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		row := d.W[o*d.In+off : o*d.In+off+n]
		s := 0.0
		if withBias {
			s = d.B[o]
		}
		for j, xj := range x {
			s += row[j] * xj
		}
		dst[o] = s
	}
}

// InferLogitSplit runs a forward pass from precomputed first-layer halves:
// first must hold the first pair position's contribution WITH the bias
// (HalfApply(a, 0, true)), second the second position's without it
// (HalfApply(b, NumStatic-equivalent offset, false)). Reference
// implementation, allocating per layer; goroutine-safe like InferLogit.
func (n *Network) InferLogitSplit(first, second []float64) float64 {
	h := make([]float64, len(first))
	for o := range h {
		v := first[o] + second[o]
		if v < 0 {
			v = 0
		}
		h[o] = v
	}
	for li := 1; li < len(n.Layers); li++ {
		h = n.Layers[li].Apply(h)
		if li == len(n.Layers)-1 {
			break
		}
		for i := range h {
			if h[i] < 0 {
				h[i] = 0
			}
		}
	}
	return h[0]
}

// Scratch holds one forward pass worth of buffers, sized for a specific
// network: each layer's dense output plus one compacted list of the
// surviving (positive or NaN) activations feeding the next layer. A
// Scratch is not safe for concurrent use; give each scoring goroutine its
// own (the scan engine keeps one per worker).
type Scratch struct {
	bufs [][]float64
	idx  []int
	val  []float64
}

// NewScratch allocates the scratch buffers for every layer of the network.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{bufs: make([][]float64, len(n.Layers))}
	width := 0
	for i, l := range n.Layers {
		s.bufs[i] = make([]float64, l.Out)
		width = max(width, l.Out)
	}
	s.idx = make([]int, width)
	s.val = make([]float64, width)
	return s
}

// InferLogitSparse is InferLogitSplit with zero heap allocations, skipping
// the activations ReLU zeroes: after the halves-add and after every hidden
// layer it compacts the entries with !(v <= 0) — exactly those the
// reference ReLU does not map to ±0, so NaN and +Inf flow through as they
// do there — and the next layer accumulates only those (applySparse).
//
// The logit is bit-identical to InferLogitSplit for finite weights. Every
// output row adds the same surviving terms in the same increasing order as
// the reference; each skipped term is w·(±0) = ±0, which leaves a nonzero
// partial sum unchanged and can at most flip the sign of a zero one, and
// ReLU and Sigmoid map ±0 alike. This is the scorer's hot path.
func (n *Network) InferLogitSparse(s *Scratch, first, second []float64) float64 {
	h := s.bufs[0]
	second = second[:len(first)]
	for o, f := range first {
		h[o] = f + second[o]
	}
	k := compactReLU(s.idx, s.val, h)
	last := len(n.Layers) - 1
	for li := 1; li < last; li++ {
		out := s.bufs[li]
		n.Layers[li].applySparse(out, s.idx[:k], s.val[:k])
		k = compactReLU(s.idx, s.val, out)
	}
	out := s.bufs[last]
	n.Layers[last].applySparse(out, s.idx[:k], s.val[:k])
	return out[0]
}

// compactReLU writes the index and value of every entry of h that survives
// ReLU as a nonzero (!(v <= 0): positive, +Inf or NaN) into idx/val, in
// increasing index order, and returns how many there are. Each entry is
// stored unconditionally and the count advanced by the comparison alone,
// which the compiler turns into a conditional move: half the activations
// are zero in no predictable pattern, so a branch here mispredicts often.
func compactReLU(idx []int, val []float64, h []float64) int {
	idx, val = idx[:len(h)], val[:len(h)]
	k := 0
	for o, v := range h {
		idx[k] = o
		val[k] = v
		if !(v <= 0) {
			k++
		}
	}
	return k
}

// applySparse computes the layer on a compacted input:
// dst[o] = B[o] + Σ_k W[o][idx[k]]·val[k], k increasing. Inputs absent from
// idx are taken as zero. Four output rows per pass share each gathered
// index and value; each row is resliced to exactly d.In so one bounds check
// per gathered index covers all four.
func (d *Dense) applySparse(dst []float64, idx []int, val []float64) {
	in := d.In
	val = val[:len(idx)]
	o := 0
	for ; o+3 < d.Out; o += 4 {
		r0 := d.W[o*in:][:in]
		r1 := d.W[(o+1)*in:][:in]
		r2 := d.W[(o+2)*in:][:in]
		r3 := d.W[(o+3)*in:][:in]
		s0, s1, s2, s3 := d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
		for k, j := range idx {
			v := val[k]
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		row := d.W[o*in:][:in]
		s := d.B[o]
		for k, j := range idx {
			s += row[j] * val[k]
		}
		dst[o] = s
	}
}
