package main

import (
	"context"
	"fmt"
	"os"
	"slices"

	"repro/internal/cas"
	"repro/internal/compid"
	"repro/internal/detector"
	"repro/internal/diffengine"
	"repro/internal/disasm"
	"repro/internal/dynamic"
	"repro/internal/emu"
	"repro/internal/features"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vulndb"
	"repro/patchecko"
)

// storeReplayKeys caps the store replay: per-call cost needs a sample, not
// every key the scan touched.
const storeReplayKeys = 500

var modes = [2]patchecko.QueryMode{patchecko.QueryVulnerable, patchecko.QueryPatched}

// sinkVec keeps replayed feature extractions from being optimized away.
var sinkVec features.Vector

// replayCounts is the work a replay did, in the engine's terms.
type replayCounts struct {
	funcs               int
	pairs, candidates   int64
	validated, excluded int64
	validationsDeduped  int64
	candExecs, refExecs int64
	refsProfiled        int64
	emuExecs, verdicts  int64
}

// cell is one replayed (CVE, image, mode) grid cell.
type cell struct {
	lib   string
	mode  patchecko.QueryMode
	cands []detector.Candidate
	addrs []uint64

	matched     bool
	top         dynamic.Ranked
	topProfiles []dynamic.EnvProfile
	patched     bool
}

// better is the scan reduction's order: a match beats no match, more
// candidates beat fewer among unmatched cells, and a closer match beats a
// farther one. Ties keep the earlier cell.
func (c *cell) better(than *cell) bool {
	if c.matched != than.matched {
		return c.matched
	}
	if !c.matched {
		return len(c.cands) > len(than.cands)
	}
	return c.top.Sim < than.top.Sim
}

type refKey struct {
	cve  string
	mode patchecko.QueryMode
}

type bodyKey struct {
	cve string
	fn  cas.Addr
}

// execTarget is one function the dynamic replay profiled, with the
// environments it ran under.
type execTarget struct {
	dis  *disasm.Disassembly
	fn   *disasm.Function
	envs []*minic.Env
}

// replay calls each layer's public functions on one scan's inputs, in the
// order and with the sharing the engine uses, under benchmark-owned spans.
type replay struct {
	tr        *tracer
	fx        *fixture
	fw        *patchecko.Firmware
	dir       string
	ids       []string
	stepLimit int64

	prepared    []*patchecko.PreparedImage
	keep        [][]bool // [CVE][image]
	cells       map[[3]int]*cell
	refs        map[refKey]*vulndb.Ref
	refProfiles map[refKey][]dynamic.Profile
	executed    []execTarget

	storeKeys   []string
	storeScores []float64

	counts      replayCounts
	truthRecall float64
	execNs      []float64
	execSteps   []float64
	emuAllocs   float64
}

func newReplay(tr *tracer, fx *fixture, fw *patchecko.Firmware, dir string) *replay {
	return &replay{
		tr:          tr,
		fx:          fx,
		fw:          fw,
		dir:         dir,
		ids:         fx.db.IDs(),
		stepLimit:   fx.analyzer(1, nil).StepLimit,
		cells:       make(map[[3]int]*cell),
		refs:        make(map[refKey]*vulndb.Ref),
		refProfiles: make(map[refKey][]dynamic.Profile),
	}
}

// run replays every layer the workload's scan runs. A static-only scan
// runs neither the dynamic nor the differential stage.
func (r *replay) run(ctx context.Context) error {
	type layer struct {
		name string
		fn   func(context.Context) error
	}
	layers := []layer{{"prepare", r.prepare}, {"compid", r.compid}, {"static", r.static}, {"store", r.store}}
	if !r.fx.staticOnly {
		layers = append(layers, layer{"dynamic", r.dynamic}, layer{"emu", r.emu}, layer{"diff", r.diff})
	}
	for _, l := range layers {
		r.tr.begin("replay." + l.name)
		err := l.fn(ctx)
		r.tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
	}
	return nil
}

// call runs f under a span.
func (r *replay) call(name string, f func()) {
	r.tr.begin(name)
	f()
	r.tr.end()
}

func (r *replay) prepare(context.Context) error {
	for _, im := range r.fw.Images {
		var (
			p   *patchecko.PreparedImage
			dis *disasm.Disassembly
			err error
		)
		r.call("patchecko.Prepare", func() { p, err = patchecko.Prepare(im) })
		if err != nil {
			return err
		}
		r.call("disasm.Disassemble", func() { dis, err = disasm.Disassemble(im) })
		if err != nil {
			return err
		}
		for _, f := range dis.Funcs {
			r.call("features.Extract", func() { sinkVec = features.Extract(dis, f) })
		}
		r.prepared = append(r.prepared, p)
		r.counts.funcs += p.NumFuncs()
	}
	return nil
}

// compid fingerprints every image, derives every CVE's signature, and
// takes the prefilter's keep decisions the way the engine schedules its
// grid: a row the filter would empty keeps every image.
func (r *replay) compid(context.Context) error {
	arch, err := isa.ByName(r.fw.Arch)
	if err != nil {
		return err
	}
	for _, p := range r.prepared {
		r.call("compid.Extract", func() { compid.Extract(p.Image, p.Dis, p.Vecs) })
	}
	for _, id := range r.ids {
		// A CVE without a signature keeps its whole row; PrefilterKeep
		// below decides the same way.
		r.call("compid.SignatureFor", func() { _, _ = compid.SignatureFor(id, arch) })
	}
	an := r.fx.analyzer(1, nil)
	r.keep = make([][]bool, len(r.ids))
	for ci, id := range r.ids {
		row := make([]bool, len(r.prepared))
		kept := 0
		for pi, p := range r.prepared {
			r.call("patchecko.Analyzer.PrefilterKeep", func() { row[pi] = an.PrefilterKeep(p, id) })
			if row[pi] {
				kept++
			}
		}
		if kept == 0 {
			for pi := range row {
				row[pi] = true
			}
		}
		r.keep[ci] = row
	}
	// Truth recall reads the keep matrix, so a true cell the engine still
	// scans because its row would otherwise be empty counts as kept.
	imageOf := make(map[string]int, len(r.prepared))
	for pi, p := range r.prepared {
		imageOf[p.Image.LibName] = pi
	}
	kept := 0
	for _, ct := range r.fw.CVEs {
		pi, ok := imageOf[ct.Library]
		ci := slices.Index(r.ids, ct.ID)
		if !ok || ci < 0 {
			return fmt.Errorf("ground truth %s in %s is not in the scan grid", ct.ID, ct.Library)
		}
		if r.keep[ci][pi] {
			kept++
		}
	}
	r.truthRecall = ratio(float64(kept), float64(len(r.fw.CVEs)))
	return nil
}

// ref decodes a CVE reference once.
func (r *replay) ref(entry *vulndb.Entry, mode patchecko.QueryMode) (*vulndb.Ref, error) {
	k := refKey{entry.ID, mode}
	if ref, ok := r.refs[k]; ok {
		return ref, nil
	}
	var (
		ref *vulndb.Ref
		err error
	)
	if mode == patchecko.QueryPatched {
		ref, err = entry.PatchedRef(r.fw.Arch)
	} else {
		ref, err = entry.VulnRef(r.fw.Arch)
	}
	if err != nil {
		return nil, err
	}
	r.refs[k] = ref
	return ref, nil
}

func (r *replay) entry(id string) (*vulndb.Entry, error) {
	e, ok := r.fx.db.Get(id)
	if !ok {
		return nil, fmt.Errorf("unknown CVE %s", id)
	}
	return e, nil
}

// static scores every pair of every kept cell with the batched scorer,
// preparing each image's targets and each reference's query once.
func (r *replay) static(context.Context) error {
	model := r.fx.model
	sc := model.NewScorer()
	targets := make([]*detector.TargetSet, len(r.prepared))
	for pi, p := range r.prepared {
		r.call("detector.Model.PrepareTargets", func() { targets[pi] = model.PrepareTargets(p.Vecs) })
	}
	seen := make(map[string]bool)
	for ci, id := range r.ids {
		entry, err := r.entry(id)
		if err != nil {
			return err
		}
		for mi, mode := range modes {
			ref, err := r.ref(entry, mode)
			if err != nil {
				return err
			}
			var qh *detector.QueryHalves
			r.call("detector.Model.PrepareQuery", func() { qh = model.PrepareQuery(ref.StaticVec()) })
			for pi, p := range r.prepared {
				if !r.keep[ci][pi] {
					continue
				}
				var cands []detector.Candidate
				r.call("detector.Scorer.Candidates", func() { cands = sc.Candidates(qh, targets[pi]) })
				c := &cell{lib: p.Image.LibName, mode: mode, cands: slices.Clone(cands)}
				for _, cd := range c.cands {
					c.addrs = append(c.addrs, p.Dis.Funcs[cd.Index].Addr)
				}
				r.cells[[3]int{ci, pi, mi}] = c
				r.counts.pairs += int64(targets[pi].Len())
				r.counts.candidates += int64(len(cands))
				for i, addr := range p.CAS {
					if len(r.storeKeys) == storeReplayKeys {
						break
					}
					// The store's on-disk key format: CVE, mode, content address.
					key := id + "|" + mode.String() + "|" + addr.String()
					if !seen[key] {
						seen[key] = true
						r.storeKeys = append(r.storeKeys, key)
						r.storeScores = append(r.storeScores, sc.Pair(qh, targets[pi], i))
					}
				}
			}
		}
	}
	return nil
}

// store writes a sample of the scan's score keys into an empty store and
// reads them back.
func (r *replay) store(context.Context) error {
	raw, err := r.fx.model.Marshal()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.dir, "replay-store-")
	if err != nil {
		return err
	}
	st, err := cas.Open(dir, obs.ModelHash(raw), 0)
	if err != nil {
		return err
	}
	for i, k := range r.storeKeys {
		r.call("cas.Store.PutScore", func() { st.PutScore(k, r.storeScores[i]) })
	}
	for i, k := range r.storeKeys {
		var (
			v      float64
			status cas.Status
		)
		r.call("cas.Store.GetScore", func() { v, status = st.GetScore(k) })
		if status != cas.StatusHit || v != r.storeScores[i] {
			return fmt.Errorf("store read back %s as %v (%v), wrote %v", k, v, status, r.storeScores[i])
		}
	}
	return os.RemoveAll(dir)
}

// refProfile profiles a CVE reference under its environments once.
func (r *replay) refProfile(ctx context.Context, entry *vulndb.Entry, mode patchecko.QueryMode, envs []*minic.Env, ex dynamic.Exec) ([]dynamic.Profile, error) {
	k := refKey{entry.ID, mode}
	if p, ok := r.refProfiles[k]; ok {
		return p, nil
	}
	ref, err := r.ref(entry, mode)
	if err != nil {
		return nil, err
	}
	var eps []dynamic.EnvProfile
	r.call("dynamic.ProfileFunc", func() { eps, err = dynamic.ProfileFunc(ctx, ref.Dis, ref.Fn, envs, ex) })
	if err != nil {
		return nil, err
	}
	profiles, err := dynamic.CompleteVectors(eps)
	if err != nil {
		return nil, fmt.Errorf("%s %s reference: %w", entry.ID, mode, err)
	}
	r.refProfiles[k] = profiles
	r.counts.refsProfiled++
	r.executed = append(r.executed, execTarget{ref.Dis, ref.Fn, envs})
	return profiles, nil
}

// dynamic validates every cell's candidates, profiling each function body
// once per CVE, and ranks the survivors against the query reference. A
// cell whose top survivor completed every environment is a match, which
// needs both references' profiles for its verdict.
func (r *replay) dynamic(ctx context.Context) error {
	candSink, refSink := obs.New(), obs.New()
	candEx := dynamic.Exec{Steps: r.stepLimit, Obs: candSink}
	refEx := dynamic.Exec{Steps: r.stepLimit, Obs: refSink}
	outcomes := make(map[bodyKey]dynamic.ProfileOutcome)
	for ci, id := range r.ids {
		entry, err := r.entry(id)
		if err != nil {
			return err
		}
		envs := entry.Environments()
		for pi, p := range r.prepared {
			for mi, mode := range modes {
				c := r.cells[[3]int{ci, pi, mi}]
				if c == nil || len(c.cands) == 0 {
					continue
				}
				results := make([]dynamic.ProfileOutcome, len(c.cands))
				for k, cd := range c.cands {
					key := bodyKey{id, p.CAS[cd.Index]}
					o, ok := outcomes[key]
					if ok {
						r.counts.validationsDeduped++
					} else {
						fn := p.Dis.Funcs[cd.Index]
						r.call("dynamic.ProfileCandidate", func() { o = dynamic.ProfileCandidate(ctx, p.Dis, fn, envs, candEx) })
						outcomes[key] = o
						r.executed = append(r.executed, execTarget{p.Dis, fn, envs})
					}
					results[k] = o
				}
				survivors, profiles, excluded := dynamic.ClassifyOutcomes(results, nil)
				r.counts.validated += int64(len(survivors))
				r.counts.excluded += int64(len(excluded))
				refProfiles, err := r.refProfile(ctx, entry, mode, envs, refEx)
				if err != nil {
					return err
				}
				var ranked []dynamic.Ranked
				r.call("dynamic.Rank", func() { ranked = dynamic.Rank(refProfiles, profiles) })
				if len(ranked) == 0 || ranked[0].Envs == 0 || ranked[0].Completed < ranked[0].Envs {
					continue
				}
				c.matched, c.top, c.topProfiles = true, ranked[0], profiles[ranked[0].Index]
				for _, m := range modes {
					if _, err := r.refProfile(ctx, entry, m, envs, refEx); err != nil {
						return err
					}
				}
			}
		}
	}
	r.counts.candExecs = candSink.Get(obs.CtrExecutions)
	r.counts.refExecs = refSink.Get(obs.CtrExecutions)
	return nil
}

// emu re-runs every execution the dynamic replay made, one span per
// execution, recording its instruction count for the cost fit.
func (r *replay) emu(ctx context.Context) error {
	sink := obs.New()
	allocs0, _ := readRuntime()
	for _, t := range r.executed {
		for _, env := range t.envs {
			steps0 := sink.Get(obs.CtrExecSteps)
			r.tr.begin("emu.ExecuteObserved")
			// A trap is an outcome here, not a failure: candidates trap by
			// design and the dynamic replay already classified them.
			_, _ = emu.ExecuteObserved(ctx, t.dis, t.fn, env.Clone(), r.stepLimit, sink)
			d := r.tr.end()
			r.execNs = append(r.execNs, float64(d.Nanoseconds()))
			r.execSteps = append(r.execSteps, float64(sink.Get(obs.CtrExecSteps)-steps0))
		}
	}
	allocs1, _ := readRuntime()
	r.emuAllocs = allocs1 - allocs0
	r.counts.emuExecs = sink.Get(obs.CtrExecutions)
	return nil
}

// execFit fits ns = setup + perStep·steps over the replayed executions by
// least squares.
func (r *replay) execFit() (setup, perStep float64) {
	n := float64(len(r.execNs))
	if n == 0 {
		return 0, 0
	}
	var mx, my float64
	for i := range r.execNs {
		mx += r.execSteps[i]
		my += r.execNs[i]
	}
	mx, my = mx/n, my/n
	var sxy, sxx float64
	for i := range r.execNs {
		dx := r.execSteps[i] - mx
		sxy += dx * (r.execNs[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return my, 0
	}
	perStep = sxy / sxx
	return my - perStep*mx, perStep
}

// diff decides the patch verdict of every matched cell.
func (r *replay) diff(context.Context) error {
	for ci, id := range r.ids {
		entry, err := r.entry(id)
		if err != nil {
			return err
		}
		for pi, p := range r.prepared {
			for mi := range modes {
				c := r.cells[[3]int{ci, pi, mi}]
				if c == nil || !c.matched {
					continue
				}
				vref, err := r.ref(entry, patchecko.QueryVulnerable)
				if err != nil {
					return err
				}
				pref, err := r.ref(entry, patchecko.QueryPatched)
				if err != nil {
					return err
				}
				idx := c.cands[c.top.Index].Index
				target := p.Dis.Funcs[idx]
				r.tr.begin("diff.verdict")
				var vs, ps, ts diffengine.Signature
				r.call("diffengine.SigOf", func() { vs = diffengine.SigOf(vref.Fn) })
				r.call("diffengine.SigOf", func() { ps = diffengine.SigOf(pref.Fn) })
				r.call("diffengine.SigOf", func() { ts = diffengine.SigOf(target) })
				in := diffengine.Inputs{
					VulnStatic:      vref.StaticVec(),
					PatchedStatic:   pref.StaticVec(),
					TargetStatic:    p.Vecs[idx],
					VulnProfiles:    r.refProfiles[refKey{id, patchecko.QueryVulnerable}],
					PatchedProfiles: r.refProfiles[refKey{id, patchecko.QueryPatched}],
					TargetProfiles:  dynamic.Vectors(c.topProfiles),
					VulnSig:         vs,
					PatchedSig:      ps,
					TargetSig:       ts,
				}
				var v patchecko.Verdict
				r.call("diffengine.Decide", func() { v = diffengine.Decide(in) })
				r.tr.end()
				c.patched = v.Patched
				r.counts.verdicts++
			}
		}
	}
	return nil
}

// disagreements folds the replayed cells into one result per CVE, the way
// the scan reduction does, and lists every CVE whose replayed result
// differs from the engine's report.
func (r *replay) disagreements(rep *patchecko.Report) []string {
	var out []string
	for ci, id := range r.ids {
		var best *cell
		for pi := range r.prepared {
			for mi := range modes {
				if c := r.cells[[3]int{ci, pi, mi}]; c != nil && (best == nil || c.better(best)) {
					best = c
				}
			}
		}
		got := rep.Results[id]
		switch {
		case best == nil && got == nil:
		case best == nil || got == nil:
			out = append(out, fmt.Sprintf("%s: replay has result %v, engine %v", id, best != nil, got != nil))
		case got.Library != best.lib || got.Mode != best.mode || got.Matched != best.matched || !slices.Equal(got.CandidateAddr, best.addrs):
			out = append(out, fmt.Sprintf("%s: replay picks %s/%s (matched %v, %d candidates), engine %s/%s (matched %v, %d candidates)",
				id, best.lib, best.mode, best.matched, len(best.addrs), got.Library, got.Mode, got.Matched, len(got.CandidateAddr)))
		case best.matched && (got.Match.Addr != best.addrs[best.top.Index] || got.Match.Sim != best.top.Sim || got.Verdict.Patched != best.patched):
			out = append(out, fmt.Sprintf("%s: replay matches %#x (patched %v), engine %#x (patched %v)",
				id, best.addrs[best.top.Index], best.patched, got.Match.Addr, got.Verdict.Patched))
		}
	}
	return out
}
