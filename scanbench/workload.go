package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/binimg"
	"repro/internal/cas"
	"repro/internal/corpus"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/patchecko"
)

// fixtureSeed seeds the training corpus, the model and the vulnerability
// database of every workload: the repository's evaluation fixtures are the
// seed-42 ones, so the benchmark scans the same inputs the tests and
// experiments do. The workload seed (--seed) only varies what a workload
// says it varies.
const fixtureSeed = 42

// Release-train shape: every release is the base firmware with a few
// seed-chosen CVE patch states flipped, so each rescan is a small delta
// against what the cold scan stored, and the train is short enough that
// every release is rescanned within one run.
const (
	trainReleases    = 3
	flipsPerRelease  = 3
	fleetVendorCount = 12
	fleetVendorSeed  = 70000
)

// workload is one set of inputs the benchmark scans.
type workload struct {
	name string
	// setup builds the workload's fixture from scratch; everything it does
	// is counted in setup_s.
	setup func(ctx context.Context, o options) (*fixture, error)
}

var workloads = []workload{
	{name: "thingos-small", setup: setupThingOS(false)},
	{name: "fleet-static", setup: setupFleet},
	{name: "release-train", setup: setupReleaseTrain},
	{name: "thingos-obf", setup: setupThingOS(true)},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the per-run settings every workload sees.
type options struct {
	seed int64
	// tiny builds every workload at ScaleTiny (the smoke mode of the
	// benchmark's own tests).
	tiny bool
	// dir is a scratch directory the run owns; persistent stores live
	// under it.
	dir string
}

func (o options) scale(s patchecko.Scale) patchecko.Scale {
	if o.tiny {
		return patchecko.ScaleTiny
	}
	return s
}

// fixture is a built workload: a trained model, the vulnerability database,
// the firmware images to scan in order, and the analyzer configuration the
// workload's entry point uses.
type fixture struct {
	model   *patchecko.Model
	db      *patchecko.DB
	targets []*patchecko.Firmware

	// staticOnly is the scan daemon's shed path.
	staticOnly bool
	// cache and store are shared by every analyzer of a release train, as
	// the scan daemon shares them across jobs. The store is attached by
	// fillStore, after set-up.
	cache *patchecko.RefCache
	store *cas.Store
	// base is the release train's base firmware and cold its cache-filling
	// first scan.
	base *patchecko.Firmware
	cold *patchecko.Report

	storeDir, modelHash string
	// filled names the store's entry files right after fillStore.
	filled map[string]bool
}

// fillStore attaches an empty on-disk store to the release train and fills
// it by scanning the base firmware again at one worker per core, on the
// reference cache that set-up's cold scan filled. It is not part of
// set-up: the fill creates one file per scored pair, about 18,700 at
// ScaleSmall, and on an ext4 disk of a 2-vCPU VM the kernel time of that
// many creates varied between 0.7 s and 8 s from one identical round to
// the next, more than the rest of set-up takes. It returns the filling
// scan's report and wall time.
func (fx *fixture) fillStore(ctx context.Context, dir string) (*patchecko.Report, time.Duration, error) {
	raw, err := fx.model.Marshal()
	if err != nil {
		return nil, 0, err
	}
	fx.modelHash = obs.ModelHash(raw)
	if fx.storeDir, err = os.MkdirTemp(dir, "store-"); err != nil {
		return nil, 0, err
	}
	if fx.store, err = cas.Open(fx.scoresDir(), fx.modelHash, 0); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	report, err := fx.analyzer(runtime.NumCPU(), nil).ScanFirmware(ctx, fx.base)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if fx.filled, err = entryNames(fx.scoresDir()); err != nil {
		return nil, 0, err
	}
	return report, wall, nil
}

func (fx *fixture) scoresDir() string { return filepath.Join(fx.storeDir, "scores") }

func entryNames(dir string) (map[string]bool, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(des))
	for _, de := range des {
		names[de.Name()] = true
	}
	return names, nil
}

// resetStore returns the store to what fillStore left: it deletes every
// entry a later scan added and reopens the store. Each rescan of a release
// then scores and writes the release's new pairs itself, whichever scan of
// it came first.
func (fx *fixture) resetStore() error {
	if fx.store == nil {
		return nil
	}
	names, err := entryNames(fx.scoresDir())
	if err != nil {
		return err
	}
	for name := range names {
		if !fx.filled[name] {
			if err := os.Remove(filepath.Join(fx.scoresDir(), name)); err != nil {
				return err
			}
		}
	}
	fx.store, err = cas.Open(fx.scoresDir(), fx.modelHash, 0)
	return err
}

// close deletes the fixture's on-disk store.
func (fx *fixture) close() error {
	if fx == nil || fx.storeDir == "" {
		return nil
	}
	return os.RemoveAll(fx.storeDir)
}

// analyzer returns a fresh analyzer for one scan, configured the way the
// workload's entry point configures it.
func (fx *fixture) analyzer(workers int, m *obs.Metrics) *patchecko.Analyzer {
	an := patchecko.NewAnalyzer(fx.model, fx.db)
	an.Workers = workers
	an.Obs = m
	an.StaticOnly = fx.staticOnly
	an.SharedCache = fx.cache
	an.Store = fx.store
	return an
}

// trainFixture builds the training corpus, trains the detector and builds
// the vulnerability database, all at the given scale and the fixture seed.
func trainFixture(s patchecko.Scale) (*patchecko.Model, *patchecko.DB, error) {
	groups, err := patchecko.TrainingCorpus(s, fixtureSeed)
	if err != nil {
		return nil, nil, err
	}
	tc := patchecko.DefaultTrainConfig()
	tc.Seed = fixtureSeed
	tc.MaxPosPerFunc = s.MaxPosPerFunc
	tc.Epochs = s.Epochs
	model, _, _, err := patchecko.TrainDetector(groups, tc)
	if err != nil {
		return nil, nil, err
	}
	db, err := patchecko.BuildVulnDB(s, fixtureSeed)
	if err != nil {
		return nil, nil, err
	}
	return model, db, nil
}

func setupThingOS(obfuscated bool) func(context.Context, options) (*fixture, error) {
	return func(_ context.Context, o options) (*fixture, error) {
		s := o.scale(patchecko.ScaleSmall)
		model, db, err := trainFixture(s)
		if err != nil {
			return nil, err
		}
		dev := patchecko.ThingOS
		if obfuscated {
			dev = dev.Obfuscated()
		}
		fw, err := patchecko.BuildFirmware(dev, s)
		if err != nil {
			return nil, err
		}
		return &fixture{model: model, db: db, targets: []*patchecko.Firmware{fw}}, nil
	}
}

// setupFleet builds ThingOS one scale up from the model, plus generated
// vendor libraries that host no CVE, scanned static-only.
func setupFleet(_ context.Context, o options) (*fixture, error) {
	model, db, err := trainFixture(o.scale(patchecko.ScaleSmall))
	if err != nil {
		return nil, err
	}
	base, err := patchecko.BuildFirmware(patchecko.ThingOS, o.scale(patchecko.ScaleMedium))
	if err != nil {
		return nil, err
	}
	arch, err := isa.ByName(base.Arch)
	if err != nil {
		return nil, err
	}
	extra, err := corpus.FleetVendorImages(arch, fleetVendorCount, fleetVendorSeed)
	if err != nil {
		return nil, err
	}
	fleet := *base
	fleet.Device = base.Device + "+fleet"
	fleet.Images = append(append([]*binimg.Image{}, base.Images...), extra...)
	return &fixture{model: model, db: db, targets: []*patchecko.Firmware{&fleet}, staticOnly: true}, nil
}

// setupReleaseTrain builds the base firmware and its releases and fills a
// fresh shared reference cache with a cold scan of the base firmware at
// one worker per core.
func setupReleaseTrain(ctx context.Context, o options) (*fixture, error) {
	s := o.scale(patchecko.ScaleSmall)
	model, db, err := trainFixture(s)
	if err != nil {
		return nil, err
	}
	fx := &fixture{model: model, db: db, cache: patchecko.NewRefCache(0)}
	if fx.base, err = patchecko.BuildFirmware(patchecko.ThingOS, s); err != nil {
		return nil, err
	}
	for _, dev := range releaseTrain(patchecko.ThingOS, db.IDs(), o.seed) {
		fw, err := patchecko.BuildFirmware(dev, s)
		if err != nil {
			return nil, err
		}
		fx.targets = append(fx.targets, fw)
	}
	if fx.cold, err = fx.analyzer(runtime.NumCPU(), nil).ScanFirmware(ctx, fx.base); err != nil {
		return nil, err
	}
	return fx, nil
}

// releaseTrain derives the train's devices from base: each release carries
// base's patch states with flipsPerRelease CVEs, chosen by seed, flipped.
func releaseTrain(base patchecko.Device, ids []string, seed int64) []patchecko.Device {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	rng := rand.New(rand.NewSource(seed))
	devs := make([]patchecko.Device, 0, trainReleases)
	for r := 1; r <= trainReleases; r++ {
		dev := base
		dev.Name = fmt.Sprintf("%s+r%d", base.Name, r)
		dev.PatchState = make(map[string]bool, len(base.PatchState)+flipsPerRelease)
		for id, patched := range base.PatchState {
			dev.PatchState[id] = patched
		}
		for _, i := range rng.Perm(len(ids))[:flipsPerRelease] {
			dev.PatchState[ids[i]] = !base.PatchState[ids[i]]
		}
		devs = append(devs, dev)
	}
	return devs
}
