package nn

import (
	"math/rand"
	"testing"
)

func BenchmarkForward(b *testing.B) {
	n := NewPaperNetwork(1)
	x := make([]float64, 96)
	for i := range x {
		x[i] = float64(i) / 96
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Logit(x)
	}
}

// benchSink keeps benchmarked results live.
var benchSink float64

// BenchmarkPairForward measures the scorer's forward work per symmetrized
// pair: two sparse passes over cached first-layer halves, as Scorer.Pair
// runs them. The sparse kernel's gain depends on how many hidden
// activations ReLU zeroes, and a random-weight network need not match a
// trained one, so the benchmark reports the zero fraction it measured
// alongside ns/pair.
func BenchmarkPairForward(b *testing.B) {
	n := NewPaperNetwork(1)
	rng := rand.New(rand.NewSource(2))
	l0 := n.Layers[0]
	const pool = 64
	firsts, seconds := make([][]float64, pool), make([][]float64, pool)
	zeros, hidden := 0, 0
	for i := range firsts {
		v := randVec(rng, 48)
		firsts[i], seconds[i] = l0.HalfApply(v, 0, true), l0.HalfApply(v, 48, false)
	}
	for q := range firsts {
		t := (q + 1) % pool
		z1, h1 := hiddenZeros(n, firsts[q], seconds[t])
		z2, h2 := hiddenZeros(n, firsts[t], seconds[q])
		zeros, hidden = zeros+z1+z2, hidden+h1+h2
	}
	s := n.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, t := i%pool, (i+1)%pool
		benchSink = n.InferLogitSparse(s, firsts[q], seconds[t]) +
			n.InferLogitSparse(s, firsts[t], seconds[q])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pair")
	b.ReportMetric(float64(zeros)/float64(hidden), "hidden_zero_frac")
}

// hiddenZeros runs the dense reference pass on one pair of halves and
// counts the hidden activations (every layer output but the logit) that
// ReLU leaves at ±0, out of the total.
func hiddenZeros(n *Network, first, second []float64) (zeros, total int) {
	h := make([]float64, len(first))
	for o := range h {
		h[o] = first[o] + second[o]
	}
	for li := 1; li < len(n.Layers); li++ {
		for i, v := range h {
			if v <= 0 {
				h[i] = 0
				zeros++
			}
		}
		total += len(h)
		h = n.Layers[li].Apply(h)
	}
	return zeros, total
}

func BenchmarkTrainStep(b *testing.B) {
	n := NewPaperNetwork(1)
	samples := make([]Sample, 64)
	for i := range samples {
		x := make([]float64, 96)
		for j := range x {
			x[j] = float64((i*j)%7) / 7
		}
		samples[i] = Sample{X: x, Y: float64(i % 2)}
	}
	opt := NewAdam(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.zeroGrads()
		for _, s := range samples {
			logit := n.Logit(s.X)
			_, grad := BCEWithLogit(logit, s.Y)
			n.backward(grad)
		}
		opt.Step(n, float64(len(samples)))
	}
	b.ReportMetric(float64(len(samples))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
