package hbbmc_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
)

func TestFromEdgesAPI(t *testing.T) {
	g, err := hbbmc.FromEdges(3, []hbbmc.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if _, err := hbbmc.FromEdges(1, []hbbmc.Edge{{U: 0, V: 5}}); err == nil {
		t.Error("out-of-range edge must fail")
	}
}

func TestLoadEdgeListFileAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := hbbmc.LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if _, err := hbbmc.LoadEdgeListFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file must fail")
	}
}

func TestLoadDIMACSAPI(t *testing.T) {
	g, err := hbbmc.LoadDIMACS(strings.NewReader("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := countOnce(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("triangle: %d cliques", n)
	}
}

func TestCollectAPI(t *testing.T) {
	g := hbbmc.GenerateMoonMoser(2)
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cliques, stats, err := sess.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) != 9 || stats.Cliques != 9 {
		t.Fatalf("MoonMoser(2): %d cliques collected, stats %d", len(cliques), stats.Cliques)
	}
	for _, c := range cliques {
		if len(c) != 2 {
			t.Fatalf("clique %v should have 2 vertices", c)
		}
	}
}

func TestEnumerateParallelAPI(t *testing.T) {
	g := hbbmc.GenerateSBM(5, 15, 0.5, 0.03, 21)
	seq, _, err := countOnce(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var par int64
	stats, err := sess.EnumerateParallel(context.Background(), 4, func(c []int32) bool { par++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if par != seq || stats.Cliques != seq {
		t.Fatalf("parallel %d (stats %d) != sequential %d", par, stats.Cliques, seq)
	}
}

func TestListKCliquesAPI(t *testing.T) {
	g := hbbmc.GenerateMoonMoser(3)
	var seen int64
	n, err := hbbmc.ListKCliques(g, 2, func(c []int32) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 27 || seen != 27 {
		t.Fatalf("2-cliques of MoonMoser(3): n=%d seen=%d, want 27", n, seen)
	}
	if _, err := hbbmc.ListKCliques(g, 0, nil); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestHybridConditionEdgeCases(t *testing.T) {
	// Empty graph: ρ=0 branch.
	p := hbbmc.Profile{Delta: 5, Tau: 0, Rho: 0}
	if !p.HybridConditionHolds() {
		t.Error("δ=5 with ρ=0 should satisfy the δ≥3 floor")
	}
	p = hbbmc.Profile{Delta: 2, Tau: 0, Rho: 0}
	if p.HybridConditionHolds() {
		t.Error("δ=2 fails the δ≥3 floor")
	}
	// Low density: the floor of 3 dominates τ + 3lnρ/ln3.
	p = hbbmc.Profile{Delta: 3, Tau: 1, Rho: 1.0}
	if !p.HybridConditionHolds() {
		t.Error("δ=3, τ=1, ρ=1 should hold (threshold floored at 3)")
	}
}
