package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/patchecko"
)

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetrics fails unless got reports exactly the named metrics with
// their units, every value finite.
func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, contract names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, contract says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func tinyOptions(t *testing.T, seed int64) options {
	return options{seed: seed, tiny: true, dir: t.TempDir()}
}

func TestWorkloadsMatchContract(t *testing.T) {
	var names []string
	for _, w := range readContract(t).Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("harness workloads %v, contract %v", have, names)
	}
}

// TestSmoke runs every workload at ScaleTiny with no timed phase: each
// target is scanned sequentially and in parallel, plus one repeat, and
// the run must pass its correctness gate and report every end-to-end
// metric of the contract.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runTimed(context.Background(), w, tinyOptions(t, 1), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("correctness gate failed: %v", res.problems)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, c.EndToEnd)
		})
	}
}

// TestReplayCrossCheck makes the traced run of every workload at
// ScaleTiny. The replay's counts must equal the engine's own counters, up
// to the dedup, store and shared-cache counters crossCheck names, and its
// per-CVE results must equal the report's.
func TestReplayCrossCheck(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := &result{Correct: true, Metrics: make(map[string]metric)}
			out, err := traceWorkload(context.Background(), w, tinyOptions(t, 1), res)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run failed: %v", res.problems)
			}
			if out.replay.counts.verdicts == 0 && w.name != "fleet-static" {
				t.Error("replay reached no verdict; the cross-check is vacuous")
			}
			layerMetrics(out, res.Metrics)
			checkMetrics(t, res.Metrics, c.PerLayer)
			if w.name == "fleet-static" && res.Metrics["emu.executions"].Value != 0 {
				t.Errorf("static-only scan ran %v emulator executions", res.Metrics["emu.executions"].Value)
			}
		})
	}
}

func TestCrossCheckNamesGap(t *testing.T) {
	engine := map[string]int64{
		"pairs_scored": 10, "pairs_deduped": 5, "pairs_from_store": 85,
		"executions": 40, "ref_cache_hits": 6,
	}
	warm := replayCounts{pairs: 100, candExecs: 40, refExecs: 24, refsProfiled: 6, emuExecs: 64}
	if got := crossCheck(engine, warm); len(got) != 0 {
		t.Errorf("warm shared cache: %v", got)
	}
	warm.pairs = 99
	got := crossCheck(engine, warm)
	if len(got) != 1 || !strings.Contains(got[0], "pairs_deduped") {
		t.Errorf("pair gap not reported with its counters: %v", got)
	}
}

// TestSeedHandling checks that the seed picks the release train's patch
// flips, and that another seed reports the same metric names.
func TestSeedHandling(t *testing.T) {
	var ids []string
	for _, pair := range minic.CVEs() {
		ids = append(ids, pair.ID)
	}
	states := func(seed int64) []map[string]bool {
		var out []map[string]bool
		for _, d := range releaseTrain(patchecko.ThingOS, ids, seed) {
			out = append(out, d.PatchState)
		}
		return out
	}
	equal := func(a, b []map[string]bool) bool {
		return slices.EqualFunc(a, b, func(x, y map[string]bool) bool {
			if len(x) != len(y) {
				return false
			}
			for k, v := range x {
				if y[k] != v {
					return false
				}
			}
			return true
		})
	}
	if !equal(states(1), states(1)) {
		t.Error("one seed gave two release trains")
	}
	if equal(states(1), states(2)) {
		t.Error("seeds 1 and 2 gave the same release train")
	}

	w, _ := workloadByName("release-train")
	var names [2][]string
	for i, seed := range []int64{1, 2} {
		res, err := runTimed(context.Background(), w, tinyOptions(t, seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("seed %d: %v", seed, res.problems)
		}
		for n := range res.Metrics {
			names[i] = append(names[i], n)
		}
		slices.Sort(names[i])
	}
	if !slices.Equal(names[0], names[1]) {
		t.Errorf("seed 1 reports %v, seed 2 %v", names[0], names[1])
	}
}
