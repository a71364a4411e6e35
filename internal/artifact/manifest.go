package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ManifestVersion is bumped when the manifest schema changes.
const ManifestVersion = 2

// ManifestEntry records one rendered artifact: its identity, the
// resolved params and base seed the run used, and the SHA-256
// fingerprint of the rendered bytes.
type ManifestEntry struct {
	ID      string         `json:"id"`
	Title   string         `json:"title"`
	Section string         `json:"section"`
	Params  map[string]int `json:"params,omitempty"`
	Seed    int64          `json:"seed,omitempty"`
	Bytes   int            `json:"bytes"`
	SHA256  string         `json:"sha256"`
}

// Manifest describes one regeneration run. Artifacts rendered at the
// same format, params, and seeds must fingerprint identically
// regardless of Workers — so comparing two manifests from runs at
// different worker counts verifies the byte-identical guarantee without
// keeping the rendered bytes around.
type Manifest struct {
	Version   int             `json:"version"`
	Format    string          `json:"format"`
	Workers   int             `json:"workers"`
	Artifacts []ManifestEntry `json:"artifacts"`
}

// NewManifest starts a manifest for a run rendering the given format
// on a pool of the given width.
func NewManifest(format string, workers int) *Manifest {
	return &Manifest{Version: ManifestVersion, Format: format, Workers: workers}
}

// Add fingerprints one rendered artifact into the manifest.
func (m *Manifest) Add(spec Spec, res *Result, rendered []byte) {
	m.Artifacts = append(m.Artifacts, ManifestEntry{
		ID:      spec.ID,
		Title:   spec.Title,
		Section: spec.Section,
		Params:  res.Params,
		Seed:    spec.Seed,
		Bytes:   len(rendered),
		SHA256:  Fingerprint(rendered),
	})
}

// Fingerprints returns the per-artifact fingerprints — the values that
// must be identical across runs at any worker count.
func (m *Manifest) Fingerprints() map[string]string {
	out := make(map[string]string, len(m.Artifacts))
	for _, e := range m.Artifacts {
		out[e.ID] = e.SHA256
	}
	return out
}

// WriteTo emits the manifest as indented JSON.
func (m *Manifest) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// WriteFile writes the manifest to a path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if _, err := m.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("manifest: %w", err)
	}
	return f.Close()
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return &m, nil
}

// Fingerprint is the hex SHA-256 of rendered artifact bytes.
func Fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
