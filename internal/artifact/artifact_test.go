package artifact

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"masterparasite/internal/runner"
)

// fakeDataset is a minimal typed dataset for renderer tests.
type fakeDataset []struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

func (d fakeDataset) Table() (header []string, rows [][]string) {
	header = []string{"name", "value"}
	for _, r := range d {
		rows = append(rows, []string{r.Name, itoa(r.Value)})
	}
	return header, rows
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func fakeSpec(id string) Spec {
	return Spec{
		ID: id, Title: "Fake " + id, Section: "Test", Seed: 7,
		Params: []Param{{Name: "n", Usage: "count", Default: 3, Min: 1}},
		Run: func(env Env) (*Result, error) {
			n := env.Param("n")
			ds := make(fakeDataset, 0, n)
			var text strings.Builder
			for i := 0; i < n; i++ {
				ds = append(ds, struct {
					Name  string `json:"name"`
					Value int    `json:"value"`
				}{Name: "row", Value: i})
				text.WriteString("row\n")
			}
			return &Result{Text: text.String(), Dataset: ds}, nil
		},
	}
}

func TestRegisterRejectsDuplicatesAndConflicts(t *testing.T) {
	if err := Register(fakeSpec("t-dup")); err != nil {
		t.Fatal(err)
	}
	if err := Register(fakeSpec("t-dup")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	bad := fakeSpec("t-conflict")
	bad.Params = []Param{{Name: "t-orphan", Default: 1, Min: 0}, {Name: "n", Default: 99, Min: 0}}
	if err := Register(bad); err == nil {
		t.Fatal("conflicting param re-declaration accepted")
	}
	// The rejected spec must leave no trace: "t-orphan" was declared
	// before the conflicting "n", but a failed registration must not
	// have recorded it as a param owner.
	orphan := fakeSpec("t-orphan-reuser")
	orphan.Params = []Param{{Name: "t-orphan", Default: 2, Min: 0}}
	if err := Register(orphan); err != nil {
		t.Fatalf("failed registration polluted param ownership: %v", err)
	}
	if err := Register(Spec{Title: "no id"}); err == nil {
		t.Fatal("spec without ID accepted")
	}
}

func TestResolveIDsValidatesUpFront(t *testing.T) {
	MustRegister(fakeSpec("t-resolve-a"))
	MustRegister(fakeSpec("t-resolve-b"))

	ids, err := ResolveIDs("t-resolve-b, t-resolve-a")
	if err != nil || len(ids) != 2 || ids[0] != "t-resolve-b" {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
	for _, expr := range []string{"t-resolve-a,,t-resolve-b", "t-resolve-a,t-resolve-a", "t-resolve-a,nope", ","} {
		if _, err := ResolveIDs(expr); err == nil {
			t.Errorf("expr %q accepted", expr)
		}
	}
	all, err := ResolveIDs("all")
	if err != nil || len(all) == 0 {
		t.Fatalf("all: ids=%v err=%v", all, err)
	}
}

func TestEnvDefaultsAndValidation(t *testing.T) {
	s := fakeSpec("t-env")
	env, err := s.NewEnv(runner.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Param("n") != 3 {
		t.Fatalf("default not applied: %d", env.Param("n"))
	}
	env, err = s.NewEnv(runner.New(1), map[string]int{"n": 5, "other-specs-param": 9})
	if err != nil {
		t.Fatal(err)
	}
	if env.Param("n") != 5 {
		t.Fatalf("override not applied: %d", env.Param("n"))
	}
	if _, err := s.NewEnv(runner.New(1), map[string]int{"n": 0}); err == nil {
		t.Fatal("below-minimum value accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared param lookup did not panic")
		}
	}()
	env.Param("undeclared")
}

func TestExecStampsIdentity(t *testing.T) {
	s := fakeSpec("t-exec")
	env, err := s.NewEnv(runner.New(1), map[string]int{"n": 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "t-exec" || res.Title != "Fake t-exec" || res.Section != "Test" || res.Params["n"] != 2 {
		t.Fatalf("identity not stamped: %+v", res)
	}

	noData := Spec{ID: "t-nodata", Run: func(Env) (*Result, error) { return &Result{Text: "x"}, nil }}
	if _, err := noData.Exec(Env{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestRenderers(t *testing.T) {
	res := &Result{
		ID: "t-render", Title: "Fake render", Section: "Test",
		Params: map[string]int{"n": 2}, Text: "row|one\nrow|two\n",
		Dataset: fakeDataset{{Name: "a|b", Value: 1}, {Name: "c", Value: 2}},
	}

	render := func(format string) string {
		t.Helper()
		r, err := RendererFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Render(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	if got := render("text"); got != "== Fake render ==\nrow|one\nrow|two\n\n" {
		t.Fatalf("text rendering:\n%q", got)
	}
	var decoded struct {
		ID      string         `json:"id"`
		Params  map[string]int `json:"params"`
		Dataset fakeDataset    `json:"dataset"`
	}
	if err := json.Unmarshal([]byte(render("json")), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "t-render" || decoded.Params["n"] != 2 || len(decoded.Dataset) != 2 || decoded.Dataset[0].Name != "a|b" {
		t.Fatalf("json round trip: %+v", decoded)
	}
	csvOut := render("csv")
	if !strings.HasPrefix(csvOut, "name,value\n") || !strings.Contains(csvOut, "a|b,1") {
		t.Fatalf("csv rendering:\n%s", csvOut)
	}
	mdOut := render("md")
	if !strings.Contains(mdOut, "## Fake render") || !strings.Contains(mdOut, "| a\\|b | 1 |") {
		t.Fatalf("markdown rendering:\n%s", mdOut)
	}
	if _, err := RendererFor("yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestManifestFingerprints(t *testing.T) {
	spec := fakeSpec("t-manifest")
	res := &Result{ID: spec.ID, Params: map[string]int{"n": 3}, Dataset: fakeDataset{}}

	m1 := NewManifest("text", 1)
	m1.Add(spec, res, []byte("rendered bytes"))
	m8 := NewManifest("text", 8)
	m8.Add(spec, res, []byte("rendered bytes"))

	f1, f8 := m1.Fingerprints(), m8.Fingerprints()
	if len(f1) != 1 || f1[spec.ID] == "" || f1[spec.ID] != f8[spec.ID] {
		t.Fatalf("fingerprints differ across worker counts: %v vs %v", f1, f8)
	}
	if f1[spec.ID] != Fingerprint([]byte("rendered bytes")) {
		t.Fatal("entry fingerprint is not the SHA-256 of the rendered bytes")
	}

	other := spec
	other.ID = "t-manifest-other"
	m1.Add(other, res, []byte("other bytes"))
	if m1.Fingerprints()[other.ID] != Fingerprint([]byte("other bytes")) {
		t.Fatal("a manifest entry is missing from the fingerprints")
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version != ManifestVersion || loaded.Workers != 1 || len(loaded.Artifacts) != 2 {
		t.Fatalf("loaded manifest: %+v", loaded)
	}
	if loaded.Fingerprints()[spec.ID] != f1[spec.ID] {
		t.Fatal("fingerprints not preserved through the file round trip")
	}
}
