package experiments

import (
	"strings"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/browser"
	"masterparasite/internal/runner"
)

// regenerate renders every registered artifact with the given worker
// count, at sizes small enough for the race-detector CI run. It returns
// the concatenated text rendering and the run manifest.
func regenerate(t *testing.T, workers int) (string, *artifact.Manifest) {
	t.Helper()
	pool := runner.New(workers)
	overrides := map[string]int{"sites": 400, "days": 20}
	renderer, err := artifact.RendererFor("text")
	if err != nil {
		t.Fatal(err)
	}
	manifest := artifact.NewManifest(renderer.Format(), pool.Workers())
	var all strings.Builder
	for _, spec := range artifact.All() {
		res, rendered, err := artifact.RunRendered(spec, pool, overrides, renderer)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		all.Write(rendered)
		manifest.Add(spec, res, rendered)
	}
	return all.String(), manifest
}

// TestParallelRegenerationByteIdentical is the fleet engine's core
// guarantee: regenerating every artifact on 4 or 8
// workers produces output byte-identical to the sequential run — and
// the guarantee is checkable from the run manifests alone, whose
// per-artifact SHA-256 fingerprints must coincide.
func TestParallelRegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the artifact set three times; run without -short")
	}
	sequential, seqManifest := regenerate(t, 1)
	if !strings.Contains(sequential, "Table I") || !strings.Contains(sequential, "countermeasures") {
		t.Fatalf("sequential regeneration incomplete:\n%.400s", sequential)
	}
	seqPrints := seqManifest.Fingerprints()
	if len(seqPrints) != len(artifact.All()) {
		t.Fatalf("manifest covers %d artifacts, want %d", len(seqPrints), len(artifact.All()))
	}
	for _, workers := range []int{4, 8} {
		parallel, parManifest := regenerate(t, workers)
		if parallel != sequential {
			t.Errorf("workers=%d: output differs from sequential run\nseq:\n%.600s\npar:\n%.600s",
				workers, sequential, parallel)
		}
		parPrints := parManifest.Fingerprints()
		for id, want := range seqPrints {
			if parPrints[id] != want {
				t.Errorf("workers=%d: manifest fingerprint for %s = %.12s, sequential %.12s",
					workers, id, parPrints[id], want)
			}
		}
	}
}

// TestFleetStressKillChains hammers the runner with many concurrent
// full kill-chain scenarios — the race detector's chance to catch any
// state shared between supposedly self-contained scenarios.
func TestFleetStressKillChains(t *testing.T) {
	var profiles []browser.Profile
	for _, p := range browser.TableIIBrowsers() {
		if p.RunsOn(browser.Win10) {
			profiles = append(profiles, p)
		}
	}
	rows, err := runner.Map(runner.New(8), make([]struct{}, 24), func(i int, _ struct{}) (TableIICell, error) {
		p := profiles[i%len(profiles)]
		ok, err := injectionSucceeds(p, browser.Win10)
		if err != nil {
			return TableIICell{}, err
		}
		return TableIICell{Browser: p.Name, OS: browser.Win10, Exists: true, Injected: ok}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rows {
		if !c.Injected {
			t.Errorf("kill chain %d (%s) failed under concurrency", i, c.Browser)
		}
	}
}
