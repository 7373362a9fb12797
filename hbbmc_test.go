package hbbmc_test

import (
	"context"
	"strings"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
)

// countOnce counts g's maximal cliques through a throwaway session, so
// every call pays the preprocessing.
func countOnce(g *hbbmc.Graph, opts hbbmc.Options) (int64, *hbbmc.Stats, error) {
	sess, err := hbbmc.NewSession(g, opts)
	if err != nil {
		return 0, nil, err
	}
	return sess.Count(context.Background())
}

func TestQuickstartFlow(t *testing.T) {
	b := hbbmc.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.MustBuild()

	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cliques, stats, err := sess.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) != 3 {
		t.Fatalf("found %d maximal cliques, want 3 ({0,1,2},{2,3},{3,4})", len(cliques))
	}
	if stats.Cliques != 3 || stats.MaxCliqueSize != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	g := hbbmc.GenerateSBM(4, 12, 0.6, 0.05, 17)
	want, _, err := countOnce(g, hbbmc.Options{Algorithm: hbbmc.BKDegen})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []hbbmc.Algorithm{
		hbbmc.BK, hbbmc.BKPivot, hbbmc.BKRef, hbbmc.BKDegree,
		hbbmc.BKRcd, hbbmc.BKFac, hbbmc.EBBMC, hbbmc.HBBMC,
	} {
		got, _, err := countOnce(g, hbbmc.Options{Algorithm: algo, ET: 3, GR: true})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got != want {
			t.Errorf("%v: count %d, want %d", algo, got, want)
		}
	}
}

func TestLoadEdgeListAndCount(t *testing.T) {
	in := "0 1\n1 2\n2 0\n"
	g, err := hbbmc.LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := countOnce(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("triangle should have 1 maximal clique, got %d", n)
	}
}

func TestProfileAndCondition(t *testing.T) {
	// A planted large clique in sparse noise: τ = δ-1, dense enough that
	// the hybrid condition fails — the WE/DB shape from Table I.
	b := hbbmc.NewBuilder(200)
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	for i := 30; i < 199; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.MustBuild()
	p := hbbmc.ProfileGraph(g)
	if p.Delta != 29 || p.Tau != 28 {
		t.Fatalf("planted K30: δ=%d τ=%d, want 29/28", p.Delta, p.Tau)
	}
	if p.HybridConditionHolds() {
		t.Error("τ=δ-1 with ρ>1.44 must fail the hybrid condition")
	}

	// A BA graph with moderate clustering: τ well below δ, condition holds.
	ba := hbbmc.GenerateBA(2000, 10, 3)
	pb := hbbmc.ProfileGraph(ba)
	if pb.Tau >= pb.Delta {
		t.Fatalf("BA graph: τ=%d should be below δ=%d", pb.Tau, pb.Delta)
	}
}

func TestMoonMoserWorstCase(t *testing.T) {
	g := hbbmc.GenerateMoonMoser(5)
	n, _, err := countOnce(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n != 243 {
		t.Fatalf("MoonMoser(5) must have 3^5=243 maximal cliques, got %d", n)
	}
}

func TestCountOnGeneratedModels(t *testing.T) {
	er := hbbmc.GenerateER(500, 2500, 9)
	ba := hbbmc.GenerateBA(500, 5, 9)
	for name, g := range map[string]*hbbmc.Graph{"er": er, "ba": ba} {
		a, _, err := countOnce(g, hbbmc.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _, err := countOnce(g, hbbmc.Options{Algorithm: hbbmc.BKRcd, GR: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: HBBMC++=%d BKRcd=%d", name, a, b)
		}
	}
}

func TestInvalidOptionsSurface(t *testing.T) {
	g := hbbmc.GenerateER(10, 20, 1)
	if _, err := hbbmc.NewSession(g, hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: 7}); err == nil {
		t.Error("invalid ET must be rejected")
	}
}
