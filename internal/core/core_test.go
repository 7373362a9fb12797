package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// sessionCount counts g's maximal cliques through a fresh session at the
// given worker count; workers 1 pins the sequential driver.
func sessionCount(g *graph.Graph, opts Options, workers int) (int64, *Stats, error) {
	opts.Workers = workers
	s, err := NewSession(g, opts)
	if err != nil {
		return 0, nil, err
	}
	return s.Count(context.Background())
}

// sessionCollect is sessionCount returning the cliques themselves.
func sessionCollect(g *graph.Graph, opts Options, workers int) ([][]int32, *Stats, error) {
	opts.Workers = workers
	s, err := NewSession(g, opts)
	if err != nil {
		return nil, nil, err
	}
	return s.Collect(context.Background())
}

// allAlgorithms is the full framework grid.
var allAlgorithms = []Algorithm{BK, BKPivot, BKRef, BKDegen, BKDegree, BKRcd, BKFac, EBBMC, HBBMC}

// checkAgainstReference enumerates g under opts and fails the test unless
// the result matches the reference exactly.
func checkAgainstReference(t *testing.T, label string, g *graph.Graph, opts Options, want [][]int32) {
	t.Helper()
	got, stats, err := sessionCollect(g, opts, 1)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if d := verify.Diff(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	if stats.Cliques != int64(len(got)) {
		t.Fatalf("%s: stats.Cliques=%d but %d cliques emitted", label, stats.Cliques, len(got))
	}
	if err := verify.CheckAllMaximal(g, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func referenceFor(g *graph.Graph) [][]int32 {
	if g.NumVertices() == 0 {
		return nil
	}
	return verify.MaximalCliques(g)
}

func TestAllAlgorithmsOnFixedShapes(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"empty":      graph.NewBuilder(0).MustBuild(),
		"isolated":   graph.NewBuilder(4).MustBuild(),
		"edge":       gen.Path(2),
		"path6":      gen.Path(6),
		"cycle7":     gen.Cycle(7),
		"star8":      gen.Star(8),
		"K6":         gen.Complete(6),
		"moonmoser3": gen.MoonMoser(3),
		"triangle+pendant": func() *graph.Graph {
			b := graph.NewBuilder(4)
			b.AddEdge(0, 1)
			b.AddEdge(1, 2)
			b.AddEdge(0, 2)
			b.AddEdge(2, 3)
			return b.MustBuild()
		}(),
	}
	for name, g := range shapes {
		want := referenceFor(g)
		for _, algo := range allAlgorithms {
			for _, gr := range []bool{false, true} {
				for _, et := range []int{0, 3} {
					label := fmt.Sprintf("%s/%v/gr=%v/et=%d", name, algo, gr, et)
					checkAgainstReference(t, label, g, Options{Algorithm: algo, GR: gr, ET: et}, want)
				}
			}
		}
	}
}

func TestAllAlgorithmsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(4 * n)
		g := randomGraph(rng, n, m)
		want := referenceFor(g)
		for _, algo := range allAlgorithms {
			label := fmt.Sprintf("iter%d/%v", iter, algo)
			checkAgainstReference(t, label, g, Options{Algorithm: algo}, want)
		}
	}
}

func TestAllAlgorithmsWithETAndGROnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(35)
		g := randomGraph(rng, n, rng.Intn(5*n))
		want := referenceFor(g)
		for _, algo := range allAlgorithms {
			for _, et := range []int{1, 2, 3} {
				label := fmt.Sprintf("iter%d/%v/et=%d", iter, algo, et)
				checkAgainstReference(t, label, g, Options{Algorithm: algo, ET: et, GR: iter%2 == 0}, want)
			}
		}
	}
}

func TestHBBMCSwitchDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(35)
		g := randomGraph(rng, n, rng.Intn(6*n))
		want := referenceFor(g)
		for d := 1; d <= 4; d++ {
			for _, et := range []int{0, 3} {
				label := fmt.Sprintf("iter%d/d=%d/et=%d", iter, d, et)
				checkAgainstReference(t, label, g,
					Options{Algorithm: HBBMC, SwitchDepth: d, ET: et}, want)
			}
		}
	}
}

func TestHBBMCInnerVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(35)
		g := randomGraph(rng, n, rng.Intn(6*n))
		want := referenceFor(g)
		for _, inner := range []InnerAlgorithm{InnerPivot, InnerRef, InnerRcd, InnerFac} {
			label := fmt.Sprintf("iter%d/inner=%v", iter, inner)
			checkAgainstReference(t, label, g,
				Options{Algorithm: HBBMC, Inner: inner, ET: 3, GR: true}, want)
		}
	}
}

func TestHBBMCEdgeOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(35)
		g := randomGraph(rng, n, rng.Intn(6*n))
		want := referenceFor(g)
		for _, eo := range []EdgeOrderKind{EdgeOrderTruss, EdgeOrderDegeneracy, EdgeOrderMinDegree} {
			for _, algo := range []Algorithm{EBBMC, HBBMC} {
				label := fmt.Sprintf("iter%d/%v/order=%v", iter, algo, eo)
				checkAgainstReference(t, label, g,
					Options{Algorithm: algo, EdgeOrder: eo}, want)
			}
		}
	}
}

func TestStructuredGenerators(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":    gen.ER(60, 200, 7),
		"ba":    gen.BA(60, 4, 7),
		"sbm":   gen.SBM(gen.SBMConfig{Communities: 3, Size: 15, PIn: 0.6, POut: 0.05}, 7),
		"noisy": gen.NoisyCliques(50, 6, 7, 40, 7),
		"plc":   gen.PowerLawCluster(60, 4, 0.7, 7),
	}
	for name, g := range graphs {
		want := referenceFor(g)
		for _, algo := range []Algorithm{BKDegen, BKRcd, BKFac, BKRef, EBBMC, HBBMC} {
			label := fmt.Sprintf("%s/%v", name, algo)
			checkAgainstReference(t, label, g, Options{Algorithm: algo, ET: 3, GR: true}, want)
		}
	}
}

func TestCountMatchesCollect(t *testing.T) {
	g := gen.ER(80, 400, 9)
	count, stats, err := sessionCount(g, Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cliques, _, err := sessionCollect(g, Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if count != int64(len(cliques)) {
		t.Fatalf("Count=%d, Collect found %d", count, len(cliques))
	}
	if stats.MaxCliqueSize <= 1 {
		t.Errorf("suspicious max clique size %d", stats.MaxCliqueSize)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := gen.Path(3)
	bad := []Options{
		{Algorithm: HBBMC, ET: 4},
		{Algorithm: HBBMC, ET: -1},
		{Algorithm: HBBMC, SwitchDepth: -2},
		{Algorithm: Algorithm(99)},
		{Algorithm: HBBMC, Inner: InnerAlgorithm(9)},
		{Algorithm: HBBMC, EdgeOrder: EdgeOrderKind(9)},
		{Algorithm: HBBMC, GRMaxDegree: -1},
	}
	for i, opts := range bad {
		if _, err := NewSession(g, opts); err == nil {
			t.Errorf("options %d should be rejected: %+v", i, opts)
		}
	}
}

func TestWholeGraphGuard(t *testing.T) {
	g := gen.Path(50)
	opts := Options{Algorithm: BKPivot, MaxWholeGraphVertices: 10}
	if _, err := NewSession(g, opts); err == nil {
		t.Error("whole-graph guard should reject large graphs")
	}
	// With GR the path reduces away entirely, so the guard passes.
	opts.GR = true
	if _, err := NewSession(g, opts); err != nil {
		t.Errorf("reduced graph should fit the guard: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	g := gen.NoisyCliques(60, 8, 8, 60, 11)
	_, stats, err := sessionCount(g, Options{Algorithm: HBBMC, ET: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Calls == 0 || stats.TopBranches == 0 {
		t.Error("call counters should be populated")
	}
	if stats.EarlyTerminations == 0 {
		t.Error("a clique-planted graph should trigger early terminations")
	}
	if stats.EarlyTerminations > stats.PlexBranches {
		t.Error("b0 cannot exceed b")
	}
	if stats.Tau <= 0 {
		t.Error("truss parameter should be positive on a clique-planted graph")
	}
	_, statsOff, err := sessionCount(g, Options{Algorithm: HBBMC, ET: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if statsOff.EarlyTerminations != 0 || statsOff.PlexBranches != 0 {
		t.Error("ET counters must stay zero when ET is disabled")
	}
	if statsOff.VertexCalls <= stats.VertexCalls {
		t.Error("ET should reduce the number of vertex-phase calls")
	}
}

func TestEmitBufferIsReused(t *testing.T) {
	// The visitor's slice must be copied by callers that retain it;
	// verify the engine actually reuses the buffer (documented behaviour).
	g := gen.Complete(4)
	s, err := NewSession(g, Options{Algorithm: BKDegen, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var first []int32
	calls := 0
	_, err = s.Enumerate(context.Background(), func(c []int32) bool {
		if calls == 0 {
			first = c
		}
		calls++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = first // single clique here; just ensure no panic and one call
	if calls != 1 {
		t.Fatalf("K4 has 1 maximal clique, emit called %d times", calls)
	}
}

func TestDegreeZeroAndOneGraphs(t *testing.T) {
	// Regression guard for top-level corner cases: graphs whose maximal
	// cliques are all of size 1 or 2.
	b := graph.NewBuilder(7)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.MustBuild() // vertices 0,5,6 isolated; two disjoint edges
	want := referenceFor(g)
	for _, algo := range allAlgorithms {
		checkAgainstReference(t, fmt.Sprintf("deg01/%v", algo), g, Options{Algorithm: algo}, want)
		checkAgainstReference(t, fmt.Sprintf("deg01gr/%v", algo), g, Options{Algorithm: algo, GR: true}, want)
	}
}
