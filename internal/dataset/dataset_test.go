package dataset

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/graphmining/hbbmc/internal/core"
	"github.com/graphmining/hbbmc/internal/order"
	"github.com/graphmining/hbbmc/internal/truss"
)

func TestRegistryShape(t *testing.T) {
	specs := All()
	if len(specs) != 16 {
		t.Fatalf("expected 16 datasets, got %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate dataset code %s", s.Name)
		}
		seen[s.Name] = true
		if s.LongName == "" || s.Category == "" {
			t.Errorf("%s: missing metadata", s.Name)
		}
	}
	if _, ok := ByName("NA"); !ok {
		t.Error("ByName(NA) should resolve")
	}
	if _, ok := ByName("XX"); ok {
		t.Error("ByName(XX) should not resolve")
	}
	if len(Names()) != 16 {
		t.Error("Names should list 16 codes")
	}
}

func TestBuildDeterministicAndCached(t *testing.T) {
	spec, _ := ByName("NA")
	g1 := spec.Build()
	g2 := spec.Build()
	if g1 != g2 {
		t.Error("Build should cache")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh := spec.build()
	if fresh.NumEdges() != g1.NumEdges() || fresh.NumVertices() != g1.NumVertices() {
		t.Error("build must be deterministic")
	}
}

// TestStructuralShapes asserts the Table I properties the experiments rely
// on: sizes increase along the registry, the WE/DB stand-ins violate the
// hybrid condition via τ = δ−1, and the dense-core stand-ins keep τ far
// below δ.
func TestStructuralShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset profiling is slow in short mode")
	}
	type profile struct {
		delta, tau int
	}
	profiles := map[string]profile{}
	for _, s := range All() {
		g := s.Build()
		d := order.DegeneracyOrdering(g).Value
		tau := truss.Decompose(g).Tau
		profiles[s.Name] = profile{d, tau}
		if tau >= d && d > 0 {
			t.Errorf("%s: τ=%d not below δ=%d", s.Name, tau, d)
		}
	}
	// The big-clique stand-ins have τ exactly δ−1.
	for _, name := range []string{"WE", "DB"} {
		p := profiles[name]
		if p.tau != p.delta-1 {
			t.Errorf("%s: want τ=δ−1, got δ=%d τ=%d", name, p.delta, p.tau)
		}
	}
	// The dense-core stand-ins keep a wide δ:τ gap (at least 1.5x).
	for _, name := range []string{"DG", "CN", "OR"} {
		p := profiles[name]
		if float64(p.delta) < 1.5*float64(p.tau) {
			t.Errorf("%s: δ=%d τ=%d — gap too small for a dense-core stand-in", name, p.delta, p.tau)
		}
	}
}

// TestEnumerableQuickly sanity-checks that the smallest stand-in enumerates
// fast and that two engines agree on it.
func TestEnumerableQuickly(t *testing.T) {
	spec, _ := ByName("NA")
	g := spec.Build()
	count := func(opts core.Options) int64 {
		t.Helper()
		s, err := core.NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := s.Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	c1, c2 := count(core.Defaults()), count(core.Options{Algorithm: core.BKDegen, GR: true})
	if c1 != c2 || c1 == 0 {
		t.Fatalf("count mismatch: hbbmc=%d degen=%d", c1, c2)
	}
}

// TestBuildCached verifies the .hbg snapshot cache: a cold call writes the
// snapshot, a warm call serves the identical graph from it, and changed
// generator parameters miss the cache instead of serving a stale graph.
func TestBuildCached(t *testing.T) {
	dir := t.TempDir()
	spec, _ := ByName("NA")

	g1, err := spec.BuildCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir has %d entries, want 1", len(entries))
	}
	g2, err := spec.BuildCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(g1) {
		t.Fatal("cached graph differs from generated graph")
	}

	// A parameter change fingerprints to a different snapshot.
	tweaked := spec
	tweaked.noise++
	if _, err := tweaked.BuildCached(dir); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("tweaked spec reused the snapshot (%d entries)", len(entries))
	}

	// An unwritable cache dir is an error, not a silent fallthrough.
	if _, err := spec.BuildCached(filepath.Join(dir, "no", "such", "\x00dir")); err == nil {
		t.Fatal("bad cache dir should error")
	}
}
