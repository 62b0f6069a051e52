package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestHalfApplyVariantsAgree pins HalfApplyInto to HalfApply bit for bit,
// for both halves of a pair layer, with and without the bias.
func TestHalfApplyVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewDense(96, 128, rng)
	for i := range d.B {
		d.B[i] = rng.NormFloat64()
	}
	half := randVec(rng, 48)
	for _, tc := range []struct {
		off      int
		withBias bool
	}{{0, true}, {0, false}, {48, true}, {48, false}} {
		want := d.HalfApply(half, tc.off, tc.withBias)
		got := make([]float64, d.Out)
		d.HalfApplyInto(got, half, tc.off, tc.withBias)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("off=%d bias=%v: HalfApplyInto[%d] = %v, HalfApply = %v",
					tc.off, tc.withBias, o, got[o], want[o])
			}
		}
	}
}

// sparseInput returns a post-ReLU activation vector of length n in one of
// the layouts the sparse kernel must handle: "mixed" holds positives,
// exact +0 and exact -0 in a random pattern; "zero" is all zeros of both
// signs (an empty compacted list); "dense" is all positive.
func sparseInput(rng *rand.Rand, n int, kind string) []float64 {
	x := make([]float64, n)
	for i := range x {
		v := math.Abs(rng.NormFloat64())
		switch kind {
		case "mixed":
			switch rng.Intn(3) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
		case "zero":
			v = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		x[i] = v
	}
	return x
}

// TestApplySparseMatchesApply pins the sparse layer kernel to the dense
// reference Apply on the same activations, across shapes that exercise the
// four-row blocks and the tail (including the final 8→1 layer), and input
// layouts from empty (output = bias) to fully dense. With zero biases the
// skipped ±0 terms may flip the sign of a zero output, which == and every
// later ReLU or Sigmoid treat alike.
func TestApplySparseMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range [][2]int{{96, 128}, {128, 64}, {16, 8}, {8, 1}, {5, 3}, {6, 7}} {
		for _, zeroBias := range []bool{false, true} {
			d := NewDense(shape[0], shape[1], rng)
			if !zeroBias {
				for i := range d.B {
					d.B[i] = rng.NormFloat64()
				}
			}
			idx, val := make([]int, shape[0]), make([]float64, shape[0])
			for _, kind := range []string{"mixed", "zero", "dense"} {
				x := sparseInput(rng, shape[0], kind)
				k := compactReLU(idx, val, x)
				switch {
				case kind == "zero" && k != 0:
					t.Fatalf("%dx%d: %d of an all-zero input survive compaction", shape[0], shape[1], k)
				case kind == "dense" && k != shape[0]:
					t.Fatalf("%dx%d: %d of %d positive inputs survive compaction", shape[0], shape[1], k, shape[0])
				}
				want := d.Apply(x)
				got := make([]float64, shape[1])
				d.applySparse(got, idx[:k], val[:k])
				for o := range want {
					if got[o] != want[o] {
						t.Fatalf("%dx%d %s zeroBias=%v row %d: applySparse %v != Apply %v",
							shape[0], shape[1], kind, zeroBias, o, got[o], want[o])
					}
					if kind == "zero" && got[o] != d.B[o] {
						t.Fatalf("%dx%d row %d: empty input gives %v, want bias %v", shape[0], shape[1], o, got[o], d.B[o])
					}
				}
			}
		}
	}
}

// TestApplyIntoMatchesApply pins the sparse layer kernel as a general
// gathered dot product: with every index listed and the raw inputs as
// values — negatives included, as no ReLU has run — it is the dense layer
// and reproduces Apply bit for bit, across shapes that exercise the
// four-row blocks and the tail.
func TestApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{96, 128}, {128, 64}, {16, 7}, {5, 1}, {3, 2}} {
		d := NewDense(shape[0], shape[1], rng)
		for i := range d.B {
			d.B[i] = rng.NormFloat64()
		}
		x := randVec(rng, shape[0])
		idx := make([]int, shape[0])
		for i := range idx {
			idx[i] = i
		}
		want := d.Apply(x)
		got := make([]float64, shape[1])
		d.applySparse(got, idx, x)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("%dx%d: applySparse over every index [%d] = %v, Apply = %v",
					shape[0], shape[1], o, got[o], want[o])
			}
		}
	}
}

// TestApplyInto2MatchesApply: two inputs go through the sparse kernel one
// after the other into the same destination, as Scorer.Pair's two
// directions share one Scratch. Every row is overwritten — the destination
// starts out NaN and the first input's rows must not leak into the
// second's — so both outputs equal Apply bit for bit.
func TestApplyInto2MatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, shape := range [][2]int{{128, 64}, {16, 8}, {8, 1}, {5, 3}, {6, 7}} {
		d := NewDense(shape[0], shape[1], rng)
		for i := range d.B {
			d.B[i] = rng.NormFloat64()
		}
		idx, val := make([]int, shape[0]), make([]float64, shape[0])
		dst := make([]float64, shape[1])
		for i := range dst {
			dst[i] = math.NaN()
		}
		for _, kind := range []string{"mixed", "dense", "zero", "mixed"} {
			x := sparseInput(rng, shape[0], kind)
			k := compactReLU(idx, val, x)
			d.applySparse(dst, idx[:k], val[:k])
			want := d.Apply(x)
			for o := range want {
				if dst[o] != want[o] {
					t.Fatalf("%dx%d %s row %d: applySparse after a previous input %v != Apply %v",
						shape[0], shape[1], kind, o, dst[o], want[o])
				}
			}
		}
	}
}

// TestCompactReLUKeepsExactlyNonzeroSurvivors: compaction keeps the
// entries the reference ReLU leaves nonzero — positives, +Inf and NaN —
// in index order, and drops negatives, -Inf and both zeros.
func TestCompactReLUKeepsExactlyNonzeroSurvivors(t *testing.T) {
	h := []float64{1.5, 0, math.Copysign(0, -1), -2, math.NaN(), math.Inf(1), math.Inf(-1), 3e-320}
	idx, val := make([]int, len(h)), make([]float64, len(h))
	k := compactReLU(idx, val, h)
	wantIdx := []int{0, 4, 5, 7}
	if k != len(wantIdx) {
		t.Fatalf("kept %d entries %v, want indices %v", k, idx[:k], wantIdx)
	}
	for i, j := range wantIdx {
		if idx[i] != j || math.Float64bits(val[i]) != math.Float64bits(h[j]) {
			t.Fatalf("entry %d = (%d, %v), want (%d, %v)", i, idx[i], val[i], j, h[j])
		}
	}
}

// sameLogit reports whether two logits agree: equal under ==, or both NaN.
func sameLogit(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSparsePass runs one pair of first-layer halves through the sparse
// pass and the dense reference, comparing logits with == and their
// Sigmoid scores bit for bit.
func checkSparsePass(t *testing.T, n *Network, s *Scratch, what string, first, second []float64) {
	t.Helper()
	want := n.InferLogitSplit(first, second)
	got := n.InferLogitSparse(s, first, second)
	if !sameLogit(got, want) {
		t.Fatalf("%s: sparse logit %v != reference %v", what, got, want)
	}
	if gs, ws := Sigmoid(got), Sigmoid(want); math.Float64bits(gs) != math.Float64bits(ws) {
		t.Fatalf("%s: sparse score %v (%#x) != reference %v (%#x)",
			what, gs, math.Float64bits(gs), ws, math.Float64bits(ws))
	}
}

// TestInferLogitSparseMatchesSplit is the forward-pass half of the
// batched==scalar guarantee: the sparse pass reproduces the dense
// reference pass bit for bit, in both symmetrized directions of many
// random pairs.
func TestInferLogitSparseMatchesSplit(t *testing.T) {
	n := NewPaperNetwork(6)
	rng := rand.New(rand.NewSource(17))
	s := n.NewScratch()
	l0 := n.Layers[0]
	for trial := 0; trial < 50; trial++ {
		a, b := randVec(rng, 48), randVec(rng, 48)
		aFirst, aSecond := l0.HalfApply(a, 0, true), l0.HalfApply(a, 48, false)
		bFirst, bSecond := l0.HalfApply(b, 0, true), l0.HalfApply(b, 48, false)
		checkSparsePass(t, n, s, fmt.Sprintf("trial %d a→b", trial), aFirst, bSecond)
		checkSparsePass(t, n, s, fmt.Sprintf("trial %d b→a", trial), bFirst, aSecond)
	}
}

// TestInferLogitSparseSpecialActivations drives first-layer activations
// the random pairs rarely hit: exact +0 and -0, a layer with no survivors,
// and NaN and +Inf, which must propagate exactly as in the reference.
func TestInferLogitSparseSpecialActivations(t *testing.T) {
	n := NewPaperNetwork(7)
	for li := range n.Layers {
		for i := range n.Layers[li].B {
			n.Layers[li].B[i] = 0.01 * float64(i%5-2)
		}
	}
	rng := rand.New(rand.NewSource(18))
	s := n.NewScratch()
	width := n.Layers[0].Out
	negZero := math.Copysign(0, -1)
	cases := map[string]func(o int, first, second []float64){
		// x + (-x) rounds to +0; -0 + -0 is -0.
		"signed zeros": func(o int, first, second []float64) {
			switch o % 3 {
			case 0:
				second[o] = -first[o]
			case 1:
				first[o], second[o] = negZero, negZero
			}
		},
		"no survivors": func(o int, first, second []float64) {
			first[o], second[o] = -math.Abs(first[o]), negZero
		},
		"one NaN": func(o int, first, second []float64) {
			if o == 5 {
				first[o] = math.NaN()
			}
		},
		"one +Inf": func(o int, first, second []float64) {
			if o == 9 {
				second[o] = math.Inf(1)
			}
		},
		"-Inf is dropped": func(o int, first, second []float64) {
			if o%7 == 0 {
				first[o] = math.Inf(-1)
			}
		},
	}
	for name, edit := range cases {
		for trial := 0; trial < 5; trial++ {
			first, second := randVec(rng, width), randVec(rng, width)
			for o := range first {
				edit(o, first, second)
			}
			checkSparsePass(t, n, s, fmt.Sprintf("%s trial %d", name, trial), first, second)
		}
	}
}

// TestInferLogitSplitScratchMatchesSplit: one Scratch reused across many
// pairs carries nothing from one pass into the next. Before every pair a
// pass whose activations are NaN and +Inf dirties every buffer; the pair
// that follows must still match both a fresh Scratch and the reference.
// The inputs are nonnegative, like extracted feature vectors.
func TestInferLogitSplitScratchMatchesSplit(t *testing.T) {
	n := NewPaperNetwork(3)
	rng := rand.New(rand.NewSource(13))
	s := n.NewScratch()
	l0 := n.Layers[0]
	dirty := make([]float64, l0.Out)
	for o := range dirty {
		dirty[o] = math.Inf(1)
		if o%2 == 0 {
			dirty[o] = math.NaN()
		}
	}
	for trial := 0; trial < 50; trial++ {
		a, b := randVec(rng, 48), randVec(rng, 48)
		for i := range a {
			a[i], b[i] = math.Abs(a[i]), math.Abs(b[i])
		}
		first := l0.HalfApply(a, 0, true)
		second := l0.HalfApply(b, 48, false)
		n.InferLogitSparse(s, dirty, dirty)
		got := n.InferLogitSparse(s, first, second)
		fresh := n.InferLogitSparse(n.NewScratch(), first, second)
		if math.Float64bits(got) != math.Float64bits(fresh) {
			t.Fatalf("trial %d: reused Scratch gives %v, fresh Scratch %v", trial, got, fresh)
		}
		if want := n.InferLogitSplit(first, second); got != want {
			t.Fatalf("trial %d: sparse logit %v != reference %v", trial, got, want)
		}
	}
}

// TestInferLogitSplitScratch2MatchesSplit scores pairs the way Scorer.Pair
// does — both symmetrized directions back to back through one Scratch,
// averaged after Sigmoid — on a network whose negative hidden biases zero
// 64–99% of the activations of hidden layers 2–5, so rows see short
// survivor lists and the deepest layers often see none. The pair score
// equals the one built from two reference passes bit for bit.
func TestInferLogitSplitScratch2MatchesSplit(t *testing.T) {
	n := NewPaperNetwork(6)
	for li := 1; li < len(n.Layers)-1; li++ {
		for i := range n.Layers[li].B {
			n.Layers[li].B[i] = -math.Abs(n.Layers[li].B[i]) - 0.6
		}
	}
	rng := rand.New(rand.NewSource(17))
	s := n.NewScratch()
	l0 := n.Layers[0]
	for trial := 0; trial < 50; trial++ {
		a, b := randVec(rng, 48), randVec(rng, 48)
		aFirst, aSecond := l0.HalfApply(a, 0, true), l0.HalfApply(a, 48, false)
		bFirst, bSecond := l0.HalfApply(b, 0, true), l0.HalfApply(b, 48, false)
		want := (Sigmoid(n.InferLogitSplit(aFirst, bSecond)) + Sigmoid(n.InferLogitSplit(bFirst, aSecond))) / 2
		got := (Sigmoid(n.InferLogitSparse(s, aFirst, bSecond)) + Sigmoid(n.InferLogitSparse(s, bFirst, aSecond))) / 2
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: sparse pair score %v (%#x) != reference %v (%#x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestSplitOrderTracksConcatenated documents the relationship with the
// concatenated-input path: the split accumulation order is a reassociation
// of InferLogit's, so the logits agree to rounding error but not
// necessarily bit for bit — which is why every pair-scoring path in the
// detector standardizes on the split order.
func TestSplitOrderTracksConcatenated(t *testing.T) {
	n := NewPaperNetwork(4)
	rng := rand.New(rand.NewSource(14))
	l0 := n.Layers[0]
	for trial := 0; trial < 20; trial++ {
		a, b := randVec(rng, 48), randVec(rng, 48)
		pair := append(append(make([]float64, 0, 96), a...), b...)
		concat := n.InferLogit(pair)
		split := n.InferLogitSplit(l0.HalfApply(a, 0, true), l0.HalfApply(b, 48, false))
		if math.Abs(concat-split) > 1e-9*(1+math.Abs(concat)) {
			t.Fatalf("trial %d: split logit %v too far from concatenated %v", trial, split, concat)
		}
	}
}

// TestInferSplitScratchAllocFree: the engine forward pass Scorer.Pair
// runs must not touch the heap once the Scratch exists.
func TestInferSplitScratchAllocFree(t *testing.T) {
	n := NewPaperNetwork(5)
	rng := rand.New(rand.NewSource(15))
	l0 := n.Layers[0]
	first := l0.HalfApply(randVec(rng, 48), 0, true)
	second := l0.HalfApply(randVec(rng, 48), 48, false)
	s := n.NewScratch()
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += n.InferLogitSparse(s, first, second)
	})
	if allocs != 0 {
		t.Errorf("InferLogitSparse allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}
