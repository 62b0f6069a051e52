package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/patchecko"
)

// setupRepeats is how many times a run builds its fixture; setup_s is their
// median. The builds after the first are spread between the timed scans,
// so a slow spell of the machine reaches few of them.
const setupRepeats = 4

// metric is one reported value with its unit; q1, q3 and n describe the
// samples behind a median, when there are several.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	q1, q3 float64
	n      int
}

// result is one run's outcome; main prints it as the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists why Correct is false.
	problems []string
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// summary reports the median of xs with its quartiles and sample count.
func summary(xs []float64, unit string) metric {
	m := metric{Unit: unit, n: len(xs)}
	if len(xs) == 0 {
		return m
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m.Value, m.q1, m.q3 = quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
	return m
}

// quantile interpolates linearly between the order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// scanSample is what one timed ScanFirmware cost.
type scanSample struct {
	wall, cpu, gcCPU float64 // seconds
	allocs, heapPeak float64 // bytes
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() (allocs, gcCPU float64) {
	metrics.Read(runtimeSamples)
	return float64(runtimeSamples[0].Value.Uint64()), runtimeSamples[1].Value.Float64()
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapPeakSampler polls the live heap (as marked by the latest GC) until
// stopped and keeps the largest value seen.
type heapPeakSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapPollInterval = 2 * time.Millisecond

func startHeapPeak() *heapPeakSampler {
	h := &heapPeakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapPollInterval)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends polling and returns the peak; it returns after the polling
// goroutine has exited.
func (h *heapPeakSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak)
}

// timedScan runs one ScanFirmware on a fresh analyzer and measures it. The
// heap is collected first so every scan starts from the same live heap.
// Only sequential scans sample the heap peak: the poller would compete for
// the cores a parallel scan uses.
func timedScan(ctx context.Context, fx *fixture, fw *patchecko.Firmware, workers int) (*patchecko.Report, scanSample, error) {
	an := fx.analyzer(workers, nil)
	runtime.GC()
	var peak *heapPeakSampler
	if workers == 1 {
		peak = startHeapPeak()
	}
	allocs0, gc0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	report, err := an.ScanFirmware(ctx, fw)
	wall := time.Since(start).Seconds()
	cpu1 := processCPU()
	allocs1, gc1 := readRuntime()
	s := scanSample{wall: wall, cpu: cpu1 - cpu0, gcCPU: gc1 - gc0, allocs: allocs1 - allocs0}
	if peak != nil {
		s.heapPeak = peak.Stop()
	}
	return report, s, err
}

// normalized renders a report for byte comparison.
func normalized(r *patchecko.Report) ([]byte, error) {
	c := *r
	c.Results = make(map[string]*patchecko.CVEScan, len(r.Results))
	for id, s := range r.Results {
		if s != nil {
			cp := *s
			s = &cp
		}
		c.Results[id] = s
	}
	c.Normalize()
	return json.Marshal(&c)
}

// accuracy scores a report against the firmware's ground truth. A verdict
// is right when the CVE's reported verdict says what the truth says; a
// match is right when it names the true library and address. An unmatched
// CVE is wrong on both counts. A static-only report carries no verdicts by
// design: there a CVE's answer is its candidate list, so a verdict is right
// when it is withheld, and a match is right when the true function is among
// the true library's reported candidates.
func accuracy(r *patchecko.Report, fw *patchecko.Firmware) (verdicts, matches int) {
	for _, ct := range fw.CVEs {
		s := r.Results[ct.ID]
		if s == nil {
			continue
		}
		if r.Degraded {
			if !s.Matched {
				verdicts++
			}
			if s.Library == ct.Library && slices.Contains(s.CandidateAddr, ct.Addr) {
				matches++
			}
			continue
		}
		if !s.Matched {
			continue
		}
		if s.Verdict.Patched == ct.Patched {
			verdicts++
		}
		if s.Library == ct.Library && s.Match.Addr == ct.Addr {
			matches++
		}
	}
	return verdicts, matches
}

// gate holds the correctness checks of a run: every scan of one firmware
// must produce the same normalized report, whatever the worker count.
type gate struct {
	want map[string][]byte
}

// check compares r with the first report checked under key.
func (g *gate) check(res *result, what, key string, r *patchecko.Report) {
	got, err := normalized(r)
	if err != nil {
		res.fail("%s: render report: %v", what, err)
		return
	}
	if g.want == nil {
		g.want = make(map[string][]byte)
	}
	want, ok := g.want[key]
	if !ok {
		g.want[key] = got
		return
	}
	if !bytes.Equal(want, got) {
		res.fail("%s: normalized report of %s differs from its first scan", what, key)
	}
}

// scanHealth checks one report's own accounting: nothing failed, every CVE
// has a result, and a static-only report says so.
func scanHealth(res *result, what string, fx *fixture, r *patchecko.Report) (attempted, failed int) {
	attempted = r.Stats.Images + r.Stats.ScansRun + r.Stats.CellsFailed
	failed = r.Stats.ImagesFailed + r.Stats.CellsFailed
	if failed > 0 || len(r.Errors) > 0 {
		res.fail("%s: %d images and %d cells failed (%d errors)", what, r.Stats.ImagesFailed, r.Stats.CellsFailed, len(r.Errors))
	}
	if r.Degraded != fx.staticOnly {
		res.fail("%s: report degraded=%v, want %v", what, r.Degraded, fx.staticOnly)
	}
	for id, s := range r.Results {
		if s == nil {
			res.fail("%s: %s has no result", what, id)
		}
	}
	return attempted, failed
}

// runTimed is the untraced run: it sets the workload up, then scans the
// workload's targets in turn, each sequentially and in parallel, until the
// time is up and every target was scanned; a workload with one target
// scans it at least twice, so a rescan is always compared against an
// earlier scan. The remaining set-ups run between the scans and do not
// count against the time.
func runTimed(ctx context.Context, w workload, o options, seconds float64) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	su := &setups{w: w, o: o, res: res}
	fx, err := su.next(ctx)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	if fx.base != nil {
		fill, _, err := fx.fillStore(ctx, o.dir)
		if err != nil {
			return nil, fmt.Errorf("%s: fill store: %w", w.name, err)
		}
		scanHealth(res, "store fill", fx, fill)
		su.gate.check(res, "store fill", "cold", fill)
	}
	var (
		g                       gate
		seq, par                []scanSample
		verdictsOK, matchesOK   int
		truths                  int
		cellsTried, cellsFailed int
		scored                  = make(map[*patchecko.Firmware]bool)
	)
	workers := runtime.NumCPU()
	minScans := max(len(fx.targets), 2)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minScans || time.Now().Before(deadline); i++ {
		fw := fx.targets[i%len(fx.targets)]
		for _, wk := range []int{1, workers} {
			what := fmt.Sprintf("scan %d (workers=%d)", i, wk)
			report, s, err := timedScan(ctx, fx, fw, wk)
			res.Attempted++
			if rerr := fx.resetStore(); rerr != nil {
				return nil, fmt.Errorf("%s: reset store: %w", w.name, rerr)
			}
			if err != nil {
				res.Failed++
				res.fail("%s: %v", what, err)
				continue
			}
			a, f := scanHealth(res, what, fx, report)
			cellsTried += a
			cellsFailed += f
			if f > 0 {
				res.Failed++
			}
			g.check(res, what, fw.Device, report)
			if wk == 1 {
				seq = append(seq, s)
				if !scored[fw] {
					scored[fw] = true
					v, m := accuracy(report, fw)
					verdictsOK += v
					matchesOK += m
					truths += len(fw.CVEs)
				}
			} else {
				par = append(par, s)
			}
		}
		if len(su.times) < setupRepeats {
			start := time.Now()
			if _, err := su.next(ctx); err != nil {
				return nil, err
			}
			deadline = deadline.Add(time.Since(start))
		}
	}
	for len(su.times) < setupRepeats {
		if _, err := su.next(ctx); err != nil {
			return nil, err
		}
	}
	if truths == 0 {
		return nil, fmt.Errorf("%s: firmware carries no ground-truth CVEs", w.name)
	}
	pick := func(ss []scanSample, f func(scanSample) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}
	res.Metrics["setup_s"] = summary(su.times, "s")
	res.Metrics["scan_s"] = summary(pick(seq, func(s scanSample) float64 { return s.wall }), "s")
	res.Metrics["scan_parallel_s"] = summary(pick(par, func(s scanSample) float64 { return s.wall }), "s")
	res.Metrics["cpu_s"] = summary(pick(seq, func(s scanSample) float64 { return s.cpu }), "s")
	res.Metrics["alloc_bytes"] = summary(pick(seq, func(s scanSample) float64 { return s.allocs }), "bytes")
	res.Metrics["gc_cpu_s"] = summary(pick(seq, func(s scanSample) float64 { return s.gcCPU }), "s")
	res.Metrics["heap_peak_bytes"] = summary(pick(seq, func(s scanSample) float64 { return s.heapPeak }), "bytes")
	res.Metrics["verdict_accuracy"] = metric{Value: float64(verdictsOK) / float64(truths), Unit: "ratio", n: truths}
	res.Metrics["match_recall"] = metric{Value: float64(matchesOK) / float64(truths), Unit: "ratio", n: truths}
	okRatio := 0.0
	if cellsTried > 0 {
		okRatio = 1 - float64(cellsFailed)/float64(cellsTried)
	}
	res.Metrics["ok_ratio"] = metric{Value: okRatio, Unit: "ratio", n: cellsTried}
	return res, nil
}

// setups builds a workload's fixture from nothing, as often as asked, and
// keeps every build's wall time; setup_s is their median, the cost a fresh
// process pays. The release train's cold scans must all produce the same
// normalized report.
type setups struct {
	w     workload
	o     options
	res   *result
	gate  gate
	times []float64
}

// next builds one fixture and times it. Callers scan the first build and
// drop the others.
func (su *setups) next(ctx context.Context) (*fixture, error) {
	start := time.Now()
	fx, err := su.w.setup(ctx, su.o)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", su.w.name, err)
	}
	su.times = append(su.times, time.Since(start).Seconds())
	if fx.cold != nil {
		what := fmt.Sprintf("setup %d cold scan", len(su.times))
		scanHealth(su.res, what, fx, fx.cold)
		su.gate.check(su.res, what, "cold", fx.cold)
	}
	return fx, nil
}
