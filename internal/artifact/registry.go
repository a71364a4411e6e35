package artifact

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The package-level registry. Specs keep their registration order —
// internal/experiments registers in the paper's canonical artifact
// order, which is the order `-run all` regenerates.
var registry struct {
	mu    sync.RWMutex
	specs []Spec
	byID  map[string]int
	// paramOwner remembers which spec first declared a param name, so
	// conflicting re-declarations are rejected at registration time.
	paramOwner map[string]Param
}

// Register adds a spec to the registry. It rejects empty or duplicate
// IDs, specs without a Run function, and param declarations that
// conflict with another spec's declaration of the same name (shared
// names must agree on default and minimum, because frontends expose
// one flag per name).
func Register(s Spec) error {
	if s.ID == "" || s.Run == nil {
		return fmt.Errorf("artifact: spec needs an ID and a Run function")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byID == nil {
		registry.byID = make(map[string]int)
		registry.paramOwner = make(map[string]Param)
	}
	if _, dup := registry.byID[s.ID]; dup {
		return fmt.Errorf("artifact: duplicate spec %q", s.ID)
	}
	// Validate every param before recording any ownership, so a
	// rejected spec leaves no trace in the registry.
	for _, p := range s.Params {
		if prev, seen := registry.paramOwner[p.Name]; seen && (prev.Default != p.Default || prev.Min != p.Min) {
			return fmt.Errorf("artifact %s: param %q conflicts with an earlier declaration (default %d/min %d vs %d/%d)",
				s.ID, p.Name, p.Default, p.Min, prev.Default, prev.Min)
		}
	}
	for _, p := range s.Params {
		if _, seen := registry.paramOwner[p.Name]; !seen {
			registry.paramOwner[p.Name] = p
		}
	}
	registry.byID[s.ID] = len(registry.specs)
	registry.specs = append(registry.specs, s)
	return nil
}

// MustRegister is Register for init-time self-registration.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get looks a spec up by ID.
func Get(id string) (Spec, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	i, ok := registry.byID[id]
	if !ok {
		return Spec{}, false
	}
	return registry.specs[i], true
}

// All returns every registered spec in registration order.
func All() []Spec {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return append([]Spec(nil), registry.specs...)
}

// IDs returns every registered ID in registration order.
func IDs() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.ID
	}
	return out
}

// ParamFlags returns the union of every registered spec's params, one
// entry per name in first-declaration order — what a generic frontend
// turns into flags. Registration guarantees shared names agree.
func ParamFlags() []Param {
	seen := make(map[string]bool)
	var out []Param
	for _, s := range All() {
		for _, p := range s.Params {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// ResolveIDs expands a -run expression into registry IDs. "all" (or
// "") selects every artifact in registration order. Otherwise the
// expression is a comma-separated ID list, fully validated before
// anything runs: empty segments, unknown IDs, and duplicates are all
// rejected up front so a bad trailing ID cannot abort a run midway
// with earlier artifacts already regenerated.
func ResolveIDs(expr string) ([]string, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" || expr == "all" {
		return IDs(), nil
	}
	var ids []string
	seen := make(map[string]bool)
	var unknown []string
	for _, raw := range strings.Split(expr, ",") {
		id := strings.TrimSpace(raw)
		if id == "" {
			return nil, fmt.Errorf("empty artifact id in %q", expr)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate artifact id %q in %q", id, expr)
		}
		seen[id] = true
		if _, ok := Get(id); !ok {
			unknown = append(unknown, id)
		}
		ids = append(ids, id)
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown artifact id(s) %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(IDs(), " "))
	}
	return ids, nil
}
