package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/patchecko"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer. Times are nanoseconds since the trace began; self is the span's
// duration minus the time its child spans cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory. It is single-threaded: the replay calls
// each layer from one goroutine, so the innermost open span is the parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// finish computes every span's self time.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

// selfNs sums the self time of every span with the given name and counts
// them.
func (t *tracer) selfNs(name string) (ns int64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Self
			n++
		}
	}
	return ns, n
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// traceOutcome is what a traced run observed: the engine's own counters
// and stage totals from the traced scan, and the replay of its layers.
type traceOutcome struct {
	workers    int
	report     *patchecko.Report
	engine     map[string]int64
	stageNs    [obs.NumStages]int64
	tracedWall time.Duration
	overhead   time.Duration
	fillWall   time.Duration // the release train's store fill
	replay     *replay
	tr         *tracer
}

// traceWorkload sets the workload up once, fills the release train's
// store, scans the first target with the engine's counters on and then
// off, and replays every layer on that scan's inputs. Both scans run at one
// worker per core, and the store is reset after each, so both find it as
// the fill left it.
func traceWorkload(ctx context.Context, w workload, o options, res *result) (*traceOutcome, error) {
	fx, err := w.setup(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer fx.close()
	fw := fx.targets[0]
	out := &traceOutcome{workers: runtime.NumCPU(), tr: newTracer()}
	m := obs.New()
	var g gate
	if fx.base != nil {
		fill, wall, err := fx.fillStore(ctx, o.dir)
		if err != nil {
			return nil, fmt.Errorf("%s: fill store: %w", w.name, err)
		}
		scanHealth(res, "store fill", fx, fill)
		g.check(res, "store fill", "cold", fill)
		g.check(res, "cold scan", "cold", fx.cold)
		out.fillWall = wall
	}
	tr := out.tr
	tr.begin("trace")
	scan := func(name string, sink *obs.Metrics) (*patchecko.Report, time.Duration, error) {
		runtime.GC()
		tr.begin(name)
		report, err := fx.analyzer(out.workers, sink).ScanFirmware(ctx, fw)
		d := tr.end()
		res.Attempted++
		if err := fx.resetStore(); err != nil {
			return nil, 0, fmt.Errorf("%s: reset store: %w", w.name, err)
		}
		if err != nil {
			res.Failed++
			return nil, 0, fmt.Errorf("%s: %s: %w", w.name, name, err)
		}
		if _, failed := scanHealth(res, name, fx, report); failed > 0 {
			res.Failed++
		}
		g.check(res, name, fw.Device, report)
		return report, d, nil
	}
	if out.report, out.tracedWall, err = scan("scan.traced", m); err != nil {
		return nil, err
	}
	_, untraced, err := scan("scan.untraced", nil)
	if err != nil {
		return nil, err
	}
	out.overhead = out.tracedWall - untraced
	out.engine = m.Counters()
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		out.stageNs[s] = m.StageNs(s)
	}
	out.replay = newReplay(tr, fx, fw, o.dir)
	if err := out.replay.run(ctx); err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	tr.end()
	tr.finish()
	for _, p := range out.replay.disagreements(out.report) {
		res.fail("replay: %s", p)
	}
	for _, p := range crossCheck(out.engine, out.replay.counts) {
		res.fail("cross-check: %s", p)
	}
	return out, nil
}

// runTraced is the traced run: it reports the per-layer metrics and writes
// the spans to spansPath.
func runTraced(ctx context.Context, w workload, o options, spansPath string) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	out, err := traceWorkload(ctx, w, o, res)
	if err != nil {
		return nil, err
	}
	layerMetrics(out, res.Metrics)
	if err := out.tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics: counts and busy times from
// the engine's own counters, per-call costs from the replay's spans. A
// metric's prefix names its layer; each layer's metrics should move with
// the end-to-end metrics and workloads listed here:
//
//	prepare    (patchecko.Prepare, disasm, features)   scan_s on fleet-static; small on the others
//	prefilter  (compid.Extract, SignatureFor, PrefilterKeep)
//	                                                   scan_s on fleet-static; match_recall and
//	                                                   verdict_accuracy on thingos-obf
//	static     (detector PrepareTargets, PrepareQuery, Scorer.Candidates)
//	                                                   scan_s on fleet-static
//	store      (cas.Store GetScore, PutScore)          scan_s on release-train; store.fill_s
//	dynamic    (ProfileCandidate, ProfileFunc, Rank)   scan_s on thingos-small and release-train
//	emu        (emu.ExecuteObserved)                   scan_s, alloc_bytes, gc_cpu_s, scan_parallel_s
//	                                                   on thingos-small, thingos-obf, release-train;
//	                                                   fleet-static runs none
//	diff       (diffengine SigOf, Decide)              scan_s on release-train
//	grid, refcache (engine counters)                   scan_parallel_s on thingos-small
//	trace      (traced minus untraced scan)            nothing: the cost of the engine's counters
func layerMetrics(out *traceOutcome, ms map[string]metric) {
	c := func(name string) float64 { return float64(out.engine[name]) }
	busy := func(s obs.Stage) float64 { return float64(out.stageNs[s]) / 1e9 }
	r := out.replay
	perCall := func(span string, per float64) float64 {
		ns, _ := out.tr.selfNs(span)
		return ratio(float64(ns), per)
	}
	meanNs := func(span string) float64 {
		ns, n := out.tr.selfNs(span)
		return ratio(float64(ns), float64(n))
	}
	put := func(name, unit string, v float64) { ms[name] = metric{Value: v, Unit: unit} }
	st := out.report.Stats

	funcs := float64(r.counts.funcs)
	put("prepare.busy_s", "s", busy(obs.StagePrepare))
	put("prepare.funcs", "count", c("funcs_disassembled"))
	put("prepare.ns_per_func", "ns", perCall("patchecko.Prepare", funcs))
	put("prepare.disasm_ns_per_func", "ns", perCall("disasm.Disassemble", funcs))
	put("prepare.features_ns_per_func", "ns", perCall("features.Extract", funcs))
	put("prepare.unique_ratio", "ratio", ratio(c("funcs_unique"), c("funcs_disassembled")))

	grid := float64(st.CVEs * (st.Images - st.ImagesFailed) * 2)
	put("prefilter.fingerprint_ns_per_image", "ns", meanNs("compid.Extract"))
	put("prefilter.signature_ns_per_cve", "ns", meanNs("compid.SignatureFor"))
	put("prefilter.cells_pruned", "count", c("cells_pruned"))
	put("prefilter.keep_ratio", "ratio", ratio(grid-c("cells_pruned"), grid))
	put("prefilter.truth_recall", "ratio", r.truthRecall)

	pairs := c("pairs_scored") + c("pairs_deduped") + c("pairs_from_store")
	put("static.busy_s", "s", busy(obs.StageStatic))
	put("static.pairs_scored", "count", c("pairs_scored"))
	put("static.ns_per_pair", "ns", perCall("detector.Scorer.Candidates", float64(r.counts.pairs)))
	put("static.candidates", "count", c("static_candidates"))
	put("static.candidate_ratio", "ratio", ratio(c("static_candidates"), pairs))
	put("static.pairs_deduped", "count", c("pairs_deduped"))

	put("store.hits", "count", c("store_hits"))
	put("store.misses", "count", c("store_misses"))
	put("store.ns_per_get", "ns", meanNs("cas.Store.GetScore"))
	put("store.ns_per_put", "ns", meanNs("cas.Store.PutScore"))
	put("store.fill_s", "s", out.fillWall.Seconds())

	put("dynamic.busy_s", "s", busy(obs.StageDynamic))
	put("dynamic.candidates_validated", "count", c("candidates_validated"))
	put("dynamic.survivor_ratio", "ratio", ratio(c("candidates_validated"), c("candidates_validated")+c("candidates_excluded")))
	put("dynamic.validations_deduped", "count", c("validations_deduped"))
	put("dynamic.ns_per_candidate", "ns", meanNs("dynamic.ProfileCandidate"))
	put("dynamic.ref_profile_ns", "ns", meanNs("dynamic.ProfileFunc"))

	setupNs, nsPerStep := r.execFit()
	put("emu.executions", "count", c("executions"))
	put("emu.steps", "count", c("exec_steps"))
	put("emu.steps_per_exec", "count", ratio(c("exec_steps"), c("executions")))
	put("emu.ns_per_step", "ns", nsPerStep)
	put("emu.setup_ns_per_exec", "ns", setupNs)
	put("emu.alloc_bytes_per_exec", "bytes", ratio(r.emuAllocs, float64(len(r.execNs))))
	put("emu.trapped_ratio", "ratio", ratio(c("executions_trapped"), c("executions")))

	put("diff.verdicts", "count", c("verdicts"))
	put("diff.ns_per_verdict", "ns", meanNs("diff.verdict"))

	var stageSum int64
	for _, ns := range out.stageNs {
		stageSum += ns
	}
	put("grid.cells_run", "count", float64(st.ScansRun))
	put("grid.cells_failed", "count", float64(st.CellsFailed))
	put("grid.busy_share", "ratio", ratio(float64(stageSum), float64(out.tracedWall)*float64(out.workers)))
	put("refcache.hit_ratio", "ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	put("trace.overhead_s", "s", out.overhead.Seconds())
}

// crossCheck compares the replay's counts with the engine's counters from
// the traced scan and returns one line per disagreement. Where the two
// legitimately differ, the engine counter that explains the gap is part of
// the identity: the replay scores every pair and profiles every reference,
// while the engine reuses scores from its dedup cache (pairs_deduped) and
// the persistent store (pairs_from_store), and a warm shared reference
// cache answers reference profiles without executing them
// (ref_cache_hits).
func crossCheck(engine map[string]int64, r replayCounts) []string {
	var out []string
	expect := func(what string, replayed, want int64, explained string) {
		if replayed != want {
			out = append(out, fmt.Sprintf("%s: replay %d, engine %s = %d", what, replayed, explained, want))
		}
	}
	expect("pairs", r.pairs, engine["pairs_scored"]+engine["pairs_deduped"]+engine["pairs_from_store"],
		"pairs_scored + pairs_deduped + pairs_from_store")
	expect("static candidates", r.candidates, engine["static_candidates"], "static_candidates")
	expect("validated candidates", r.validated, engine["candidates_validated"], "candidates_validated")
	expect("excluded candidates", r.excluded, engine["candidates_excluded"], "candidates_excluded")
	expect("deduped validations", r.validationsDeduped, engine["validations_deduped"], "validations_deduped")
	expect("verdicts", r.verdicts, engine["verdicts"], "verdicts")
	expect("emulator replay", r.emuExecs, r.candExecs+r.refExecs, "(dynamic replay executions)")
	switch misses := engine["ref_cache_misses"]; {
	case misses == r.refsProfiled:
		expect("executions", r.candExecs+r.refExecs, engine["executions"], "executions")
	case misses == 0 && engine["ref_cache_hits"] > 0:
		// A warm shared cache served every reference profile.
		expect("executions", r.candExecs, engine["executions"], "executions (references from ref_cache_hits)")
	default:
		out = append(out, fmt.Sprintf("reference profiles: replay %d, engine ref_cache_misses = %d", r.refsProfiled, misses))
	}
	return out
}
