package patchecko

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/obs"
)

// The golden-report suite pins two contracts at once:
//
//  1. Reproducibility: ScanFirmware at seed 42 / ScaleTiny produces the
//     byte-identical Report JSON committed in testdata, so any change to
//     scoring, ranking, verdicts or error recording shows up as a golden
//     diff instead of sliding by silently.
//  2. Observation is free of side effects: the Report is the same bytes at
//     every worker count, with metrics disabled, counters-only, or full
//     event tracing. Instrumentation may only watch.
//
// Regenerate after an intentional pipeline change with:
//
//	PATCHECKO_UPDATE_GOLDEN=1 go test ./patchecko/ -run TestGoldenReport

const goldenPath = "testdata/golden_report_seed42.json"

var (
	goldenOnce  sync.Once
	goldenModel *Model
	goldenDB    *DB
	goldenFw    *Firmware
	goldenErr   error
)

// goldenFixtures builds the seed-42 tiny-scale pipeline inputs shared by
// the golden and metrics-consistency tests. Everything is deterministic in
// (scale, seed), which is what makes a committed golden file possible.
func goldenFixtures(t *testing.T) (*Model, *DB, *Firmware) {
	t.Helper()
	goldenOnce.Do(func() {
		groups, err := TrainingCorpus(ScaleTiny, 42)
		if err != nil {
			goldenErr = err
			return
		}
		cfg := DefaultTrainConfig()
		cfg.Seed = 42
		cfg.Epochs = ScaleTiny.Epochs
		cfg.MaxPosPerFunc = ScaleTiny.MaxPosPerFunc
		goldenModel, _, _, goldenErr = TrainDetector(groups, cfg)
		if goldenErr != nil {
			return
		}
		goldenDB, goldenErr = BuildVulnDB(ScaleTiny, 42)
		if goldenErr != nil {
			return
		}
		goldenFw, goldenErr = BuildFirmware(ThingOS, ScaleTiny)
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenModel, goldenDB, goldenFw
}

// goldenConfig selects one analyzer configuration for a golden run. The
// zero value is the default scan: dedup on, no persistent store, exact
// static stage.
type goldenConfig struct {
	workers     int
	sink        *obs.Metrics
	noDedup     bool
	noPrefilter bool // full scan grid instead of the component-prefiltered one
	store       *cas.Store
	retrieval   bool // embedding-index static stage at topK
	topK        int  // 0 means DefaultTopK
}

var (
	goldenEmbOnce sync.Once
	goldenEmb     *Embedder
	goldenEmbErr  error
)

// goldenEmbedder distills the retrieval embedder from the fixture model once
// per test binary. Distillation is deterministic in (model, seed), so every
// retrieval run indexes with identical embeddings.
func goldenEmbedder(t *testing.T) *Embedder {
	t.Helper()
	model, _, _ := goldenFixtures(t)
	goldenEmbOnce.Do(func() {
		goldenEmb, goldenEmbErr = DistillEmbedder(model, 1)
	})
	if goldenEmbErr != nil {
		t.Fatal(goldenEmbErr)
	}
	return goldenEmb
}

// goldenReportConfigJSON runs a full firmware scan under one configuration
// and marshals the normalized Report. Wall-clock timings, the configured
// worker count, and the dedup/store work-saved statistics are the only
// fields that legitimately vary across configurations; normalizeReport
// zeroes them, and encoding/json sorts all map keys, so equal Reports
// marshal to equal bytes.
func goldenReportConfigJSON(t *testing.T, cfg goldenConfig) []byte {
	t.Helper()
	model, db, fw := goldenFixtures(t)
	an := NewAnalyzer(model, db)
	an.Workers = cfg.workers
	an.Obs = cfg.sink
	an.Dedup = !cfg.noDedup
	an.Prefilter = !cfg.noPrefilter
	an.Store = cfg.store
	if cfg.retrieval {
		an.Embedder = goldenEmbedder(t)
		an.TopK = cfg.topK
	}
	report, err := an.ScanFirmware(context.Background(), fw)
	if err != nil {
		t.Fatalf("workers=%d: %v", cfg.workers, err)
	}
	normalizeReport(report)
	// Compact marshaling keeps the committed fixture small; the profile
	// arrays dominate the report and indentation would triple their size.
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

func goldenReportJSON(t *testing.T, workers int, sink *obs.Metrics) []byte {
	t.Helper()
	return goldenReportConfigJSON(t, goldenConfig{workers: workers, sink: sink})
}

// goldenModelHash returns the fixture model's content hash, the store
// version key a real run derives from the serialized model.
func goldenModelHash(t *testing.T) string {
	t.Helper()
	model, _, _ := goldenFixtures(t)
	raw, err := model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return obs.ModelHash(raw)
}

func TestGoldenReport(t *testing.T) {
	base := goldenReportJSON(t, 1, nil)
	if os.Getenv("PATCHECKO_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, base, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(base))
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with PATCHECKO_UPDATE_GOLDEN=1 to create it): %v", err)
	}
	if !bytes.Equal(base, want) {
		t.Fatalf("seed-42 report diverged from %s (%d vs %d bytes); "+
			"if the pipeline change is intentional, regenerate with PATCHECKO_UPDATE_GOLDEN=1",
			goldenPath, len(base), len(want))
	}

	// Every worker count and every observability mode must reproduce the
	// same bytes: nil (no-op sink), counters-only, and full event tracing.
	sinks := []struct {
		name string
		mk   func() *obs.Metrics
	}{
		{"metrics-off", func() *obs.Metrics { return nil }},
		{"counters", obs.New},
		{"traced", func() *obs.Metrics { return obs.NewTraced(0) }},
	}
	for _, workers := range []int{1, 4, 16} {
		for _, s := range sinks {
			got := goldenReportJSON(t, workers, s.mk())
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d %s: report bytes diverge from golden", workers, s.name)
			}
		}
	}

	// Dedup equivalence: the content-addressed fast path and the every-pair
	// reference path must produce the same bytes at every worker count.
	for _, workers := range []int{1, 4, 16} {
		got := goldenReportConfigJSON(t, goldenConfig{workers: workers, noDedup: true})
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d dedup-off: report bytes diverge from golden", workers)
		}
	}

	// Retrieval equivalence: the embedding-index static stage at the default
	// top-K — which exceeds the fixture images' unique-body counts, so the
	// index nominates every body — must reproduce the golden bytes at every
	// worker count, with dedup on and off.
	for _, workers := range []int{1, 4, 16} {
		for _, noDedup := range []bool{false, true} {
			got := goldenReportConfigJSON(t, goldenConfig{workers: workers, noDedup: noDedup, retrieval: true})
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d dedup=%v retrieval: report bytes diverge from golden", workers, !noDedup)
			}
		}
	}

	// Prefilter equivalence: the component prefilter (on by default, and on
	// in every run above) prunes grid cells whose fingerprints cannot host
	// the CVE, but a pruned cell is always one the full grid would score as
	// a no-match — so the full grid must reproduce the same committed bytes
	// at every worker count, with dedup on and off and through the retrieval
	// static stage.
	for _, workers := range []int{1, 4, 16} {
		for _, noDedup := range []bool{false, true} {
			got := goldenReportConfigJSON(t, goldenConfig{workers: workers, noDedup: noDedup, noPrefilter: true})
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d dedup=%v no-prefilter: report bytes diverge from golden", workers, !noDedup)
			}
		}
		got := goldenReportConfigJSON(t, goldenConfig{workers: workers, retrieval: true, noPrefilter: true})
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d retrieval no-prefilter: report bytes diverge from golden", workers)
		}
	}

	// Store equivalence: a cold persistent store (every consult misses and
	// populates) and a warm one (every consult hits) must both reproduce the
	// golden bytes. A fresh Store handle on the same directory separates the
	// warm run from in-memory caching.
	hash := goldenModelHash(t)
	for _, workers := range []int{1, 4, 16} {
		dir := t.TempDir()
		for _, phase := range []string{"cold", "warm"} {
			st, err := cas.Open(dir, hash, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenReportConfigJSON(t, goldenConfig{workers: workers, store: st})
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d store-%s: report bytes diverge from golden", workers, phase)
			}
		}
	}
}

// TestScorerPairMatchesSimilarityTrainedModel pins the batched scorer to
// the scalar reference on the trained golden model, whose hidden
// activations have the sparsity the sparse forward pass exploits (random
// weights, as in the detector's own equivalence tests, need not): every
// Scorer.Pair score over every CVE reference × query mode × function of
// one image equals Model.Similarity bit for bit.
func TestScorerPairMatchesSimilarityTrainedModel(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	p, err := Prepare(fw.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(model, db)
	ts := model.PrepareTargets(p.Vecs)
	sc := model.NewScorer()
	pairs := 0
	for _, id := range db.IDs() {
		entry, _ := db.Get(id)
		for _, mode := range []QueryMode{QueryVulnerable, QueryPatched} {
			ref, err := an.cachedRef(entry, p.Image.Arch, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", id, mode, err)
			}
			q := ref.StaticVec()
			qh := model.PrepareQuery(q)
			for i, v := range p.Vecs {
				got, want := sc.Pair(qh, ts, i), model.Similarity(q, v)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v function %d: Scorer.Pair %v != Similarity %v", id, mode, i, got, want)
				}
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs compared")
	}
	t.Logf("%d pairs over %d functions of %s bit-identical", pairs, len(p.Vecs), p.Image.LibName)
}

// TestScanMetricsConsistency cross-checks the manifest counters against the
// Report and the trace-event stream, and pins counter determinism across
// worker counts: counters count work items, not scheduling.
func TestScanMetricsConsistency(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	var baseCounters map[string]int64
	for _, workers := range []int{1, 4, 16} {
		sink := obs.NewTraced(0)
		an := NewAnalyzer(model, db)
		an.Workers = workers
		an.Obs = sink
		report, err := an.ScanFirmware(context.Background(), fw)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}

		// Counters vs the Report's own stats.
		checks := []struct {
			name string
			ctr  obs.Counter
			want int64
		}{
			{"cells completed", obs.CtrCellsCompleted, int64(report.Stats.ScansRun)},
			{"cells pruned", obs.CtrCellsPruned, int64(report.Stats.CellsPruned)},
			// Every CVE in the fixture has a derivable signature and a host
			// image the filter keeps, so no degrade path fires.
			{"prefilter degraded", obs.CtrPrefilterDegraded, 0},
			{"ref cache hits", obs.CtrRefHits, report.Stats.CacheHits},
			{"ref cache misses", obs.CtrRefMisses, report.Stats.CacheMisses},
			{"images prepared", obs.CtrImagesPrepared, int64(report.Stats.Images - report.Stats.ImagesFailed)},
			{"images failed", obs.CtrImagesFailed, int64(report.Stats.ImagesFailed)},
			{"cells failed", obs.CtrCellsFailed, int64(report.Stats.CellsFailed)},
			{"candidates excluded", obs.CtrCandidatesExcluded, int64(report.Stats.CandidatesExcluded)},
			{"unique functions", obs.CtrFuncsUnique, int64(report.Stats.UniqueFuncs)},
			{"pairs deduped", obs.CtrPairsDeduped, report.Stats.PairsDeduped},
			{"validations deduped", obs.CtrValidationsDeduped, report.Stats.ValidationsDeduped},
			// No persistent store is configured, so every store-path counter
			// must stay zero.
			{"pairs from store", obs.CtrPairsFromStore, 0},
			{"store hits", obs.CtrStoreHits, 0},
			{"store misses", obs.CtrStoreMisses, 0},
			{"store invalidated", obs.CtrStoreInvalidated, 0},
		}
		for _, c := range checks {
			if got := sink.Get(c.ctr); got != c.want {
				t.Errorf("workers=%d: %s counter = %d, want %d", workers, c.name, got, c.want)
			}
		}

		// Partition invariants: every scored candidate is either validated
		// or excluded, and every exclusion has exactly one recorded reason.
		if v, e, s := sink.Get(obs.CtrCandidatesValidated), sink.Get(obs.CtrCandidatesExcluded),
			sink.Get(obs.CtrStaticCandidates); v+e != s {
			t.Errorf("workers=%d: validated %d + excluded %d != static candidates %d", workers, v, e, s)
		}
		if n, p, er, tot := sink.Get(obs.CtrExcludedNoEnv), sink.Get(obs.CtrExcludedPanic),
			sink.Get(obs.CtrExcludedError), sink.Get(obs.CtrCandidatesExcluded); n+p+er != tot {
			t.Errorf("workers=%d: exclusion reasons %d+%d+%d do not partition %d", workers, n, p, er, tot)
		}
		if v, p, tot := sink.Get(obs.CtrVerdictPatched), sink.Get(obs.CtrVerdictVulnerable),
			sink.Get(obs.CtrVerdicts); v+p != tot {
			t.Errorf("workers=%d: verdict outcomes %d+%d do not partition %d", workers, v, p, tot)
		}

		// Counters vs the event stream: pairs scored must equal the sum of
		// per-cell pair counts, and cell/exclusion events must match their
		// counters one-to-one.
		var evPairs, evCells, evExcluded, evPruned int64
		for _, ev := range sink.Events() {
			switch ev.Kind {
			case obs.EvCellCompleted:
				evCells++
				evPairs += int64(ev.Pairs)
			case obs.EvCandidateExcluded:
				evExcluded++
			case obs.EvPrefilter:
				evPruned += int64(ev.Pruned)
			}
		}
		if dropped := sink.Dropped(); dropped != 0 {
			t.Fatalf("workers=%d: ring dropped %d events; grow the cap for this fixture", workers, dropped)
		}
		// With dedup on, each static pair is either computed, reused from
		// the in-memory cache, or answered by the store; the three classes
		// partition the per-cell pair totals exactly.
		scored, deduped, fromStore := sink.Get(obs.CtrPairsScored),
			sink.Get(obs.CtrPairsDeduped), sink.Get(obs.CtrPairsFromStore)
		if scored+deduped+fromStore != evPairs {
			t.Errorf("workers=%d: pairs scored %d + deduped %d + from store %d != Σ cell events %d",
				workers, scored, deduped, fromStore, evPairs)
		}
		if got := sink.Get(obs.CtrCellsCompleted); got != evCells {
			t.Errorf("workers=%d: cells_completed = %d, want %d cell events", workers, got, evCells)
		}
		if got := sink.Get(obs.CtrCandidatesExcluded); got != evExcluded {
			t.Errorf("workers=%d: candidates_excluded = %d, want %d exclusion events", workers, got, evExcluded)
		}
		// The prefilter (on by default) runs before the grid: its trace
		// events account for every pruned cell (two query modes per pruned
		// image), the pruned/scanned split partitions the full grid, and on
		// this fixture it must actually prune.
		if got := sink.Get(obs.CtrCellsPruned); got != evPruned*2 {
			t.Errorf("workers=%d: cells_pruned = %d, want 2× the %d images pruned in prefilter events",
				workers, got, evPruned)
		}
		if report.Stats.CellsPruned == 0 {
			t.Errorf("workers=%d: default-on prefilter pruned nothing on the golden fixture", workers)
		}
		healthy := report.Stats.Images - report.Stats.ImagesFailed
		if got, want := report.Stats.ScansRun+report.Stats.CellsFailed+report.Stats.CellsPruned,
			report.Stats.CVEs*healthy*2; got != want {
			t.Errorf("workers=%d: scanned %d + failed %d + pruned %d cells, want full grid %d",
				workers, report.Stats.ScansRun, report.Stats.CellsFailed, report.Stats.CellsPruned, want)
		}

		// Determinism across worker counts.
		counters := sink.Counters()
		if baseCounters == nil {
			baseCounters = counters
			continue
		}
		for name, want := range baseCounters {
			if got := counters[name]; got != want {
				t.Errorf("workers=%d: counter %s = %d, want %d (workers=1)", workers, name, got, want)
			}
		}
	}
}

// TestScanMetricsConsistencyRetrieval pins the retrieval counters' contract:
// they match the Report's stats, the per-cell partition invariants hold
// (rescored + pruned pairs cover every cell's pair total; the exact-scoring
// classes cover exactly the rescored pairs), the retrieval trace events sum
// to the counters, and everything is deterministic across worker counts.
func TestScanMetricsConsistencyRetrieval(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	emb := goldenEmbedder(t)
	var baseCounters map[string]int64
	for _, workers := range []int{1, 4, 16} {
		sink := obs.NewTraced(0)
		an := NewAnalyzer(model, db)
		an.Workers = workers
		an.Obs = sink
		an.Embedder = emb
		report, err := an.ScanFirmware(context.Background(), fw)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if dropped := sink.Dropped(); dropped != 0 {
			t.Fatalf("workers=%d: ring dropped %d events; grow the cap for this fixture", workers, dropped)
		}

		// Counters vs the Report's own stats.
		checks := []struct {
			name string
			ctr  obs.Counter
			want int64
		}{
			{"retrieval hits", obs.CtrRetrievalHits, report.Stats.RetrievalHits},
			{"rescored pairs", obs.CtrRescoredPairs, report.Stats.RescoredPairs},
			{"candidates pruned", obs.CtrCandidatesPruned, report.Stats.CandidatesPruned},
		}
		for _, c := range checks {
			if got := sink.Get(c.ctr); got != c.want {
				t.Errorf("workers=%d: %s counter = %d, want %d", workers, c.name, got, c.want)
			}
		}
		if report.Stats.RescoredPairs == 0 {
			t.Errorf("workers=%d: retrieval scan rescored no pairs", workers)
		}

		// Event stream vs counters, and the per-cell pair partition: every
		// cell ran retrieval, so rescored + pruned must cover the cells' pair
		// totals exactly.
		var evPairs, evCells, evRetrieval, evRetrieved, evRescored, evPruned int64
		for _, ev := range sink.Events() {
			switch ev.Kind {
			case obs.EvCellCompleted:
				evCells++
				evPairs += int64(ev.Pairs)
			case obs.EvRetrieval:
				evRetrieval++
				evRetrieved += int64(ev.Retrieved)
				evRescored += int64(ev.Rescored)
				evPruned += int64(ev.Pruned)
			}
		}
		if evRetrieval != evCells {
			t.Errorf("workers=%d: %d retrieval events for %d cells", workers, evRetrieval, evCells)
		}
		rescored, pruned := sink.Get(obs.CtrRescoredPairs), sink.Get(obs.CtrCandidatesPruned)
		if rescored+pruned != evPairs {
			t.Errorf("workers=%d: rescored %d + pruned %d != Σ cell pairs %d", workers, rescored, pruned, evPairs)
		}
		if evRetrieved != sink.Get(obs.CtrRetrievalHits) || evRescored != rescored || evPruned != pruned {
			t.Errorf("workers=%d: retrieval events (%d, %d, %d) diverge from counters (%d, %d, %d)",
				workers, evRetrieved, evRescored, evPruned, sink.Get(obs.CtrRetrievalHits), rescored, pruned)
		}

		// The exact-scoring partition covers only the rescored pairs: with
		// dedup on, every rescored pair is computed once, reused from memory,
		// or answered by the store — never scored behind retrieval's back.
		scored, deduped, fromStore := sink.Get(obs.CtrPairsScored),
			sink.Get(obs.CtrPairsDeduped), sink.Get(obs.CtrPairsFromStore)
		if scored+deduped+fromStore != rescored {
			t.Errorf("workers=%d: pairs scored %d + deduped %d + from store %d != rescored %d",
				workers, scored, deduped, fromStore, rescored)
		}

		// Determinism across worker counts.
		counters := sink.Counters()
		if baseCounters == nil {
			baseCounters = counters
			continue
		}
		for name, want := range baseCounters {
			if got := counters[name]; got != want {
				t.Errorf("workers=%d: counter %s = %d, want %d (workers=1)", workers, name, got, want)
			}
		}
	}
}

// TestManifestFromScan exercises the full artifact path: a live scan's sink
// renders a manifest whose counters survive a JSON round trip.
func TestManifestFromScan(t *testing.T) {
	model, db, fw := goldenFixtures(t)
	sink := obs.NewTraced(0)
	an := NewAnalyzer(model, db)
	an.Workers = 4
	an.Obs = sink
	if _, err := an.ScanFirmware(context.Background(), fw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	info := obs.RunInfo{Tool: "golden-test", Seed: 42, Scale: "tiny", Workers: 4}
	if err := sink.WriteManifest(path, info); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "golden-test" || man.Seed != 42 || man.Scale != "tiny" || man.Workers != 4 {
		t.Errorf("manifest run info mangled: %+v", man)
	}
	for name, want := range sink.Counters() {
		if got := man.Counters[name]; got != want {
			t.Errorf("manifest counter %s = %d, want %d", name, got, want)
		}
	}
	if man.Events != len(sink.Events()) {
		t.Errorf("manifest events = %d, want %d", man.Events, len(sink.Events()))
	}
}
