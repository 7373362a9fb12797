package core

// Ablation benchmarks for the engineering decisions DESIGN.md calls out.
// Each benchmark pair runs HBBMC++ with one optimisation disabled so
// `go test -bench=Ablation` quantifies its contribution. Counts are also
// cross-checked, so these double as correctness tests for the ablated
// (pure-paper) code paths.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
)

// ablationGraph is triangle-rich with planted communities: every ablated
// path (tiny branches, masked candidates, X-domination) is exercised.
func ablationGraph() *graph.Graph {
	return gen.NoisyCliques(4000, 220, 11, 12000, 404)
}

func runAblation(b *testing.B, flag *bool) {
	g := ablationGraph()
	want, _, err := sessionCount(g, Defaults(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if flag != nil {
		*flag = true
		defer func() { *flag = false }()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := sessionCount(g, Defaults(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("ablated run found %d cliques, want %d", got, want)
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B)         { runAblation(b, nil) }
func BenchmarkAblationNoTinyBranch(b *testing.B)     { runAblation(b, &ablateTinyBranch) }
func BenchmarkAblationNoMaskFreeCheck(b *testing.B)  { runAblation(b, &ablateMaskFree) }
func BenchmarkAblationNoMaskDropping(b *testing.B)   { runAblation(b, &ablateMaskDrop) }
func BenchmarkAblationNoXDominationCut(b *testing.B) { runAblation(b, &ablateXDomination) }

// runParallelAblation measures a parallel query end to end — preprocessing
// and visitor included, so emit lock traffic counts — on a skewed hub-heavy
// graph.
func runParallelAblation(b *testing.B, workers int) {
	if old := runtime.GOMAXPROCS(0); old < workers {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(old)
	}
	g := gen.BA(30000, 24, 99)
	opts := Options{Algorithm: HBBMC, ET: 3, GR: true}
	want, _, err := sessionCount(g, opts, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		var got int64
		stats, err := s.Enumerate(context.Background(), func([]int32) bool { got++; return true })
		if err != nil {
			b.Fatal(err)
		}
		if got != want || stats.Cliques != want {
			b.Fatalf("found %d cliques (stats %d), want %d", got, stats.Cliques, want)
		}
	}
}

// BenchmarkParallelScheduler measures the dynamic work queue plus batched
// emit across worker counts.
func BenchmarkParallelScheduler(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("dynamic/w%d", workers), func(b *testing.B) { runParallelAblation(b, workers) })
	}
}

// TestAblatedPathsStillCorrect runs the cross-validation grid with every
// optimisation disabled — the closest configuration to the paper's plain
// pseudo-code.
func TestAblatedPathsStillCorrect(t *testing.T) {
	ablateTinyBranch = true
	ablateMaskFree = true
	ablateMaskDrop = true
	ablateXDomination = true
	defer func() {
		ablateTinyBranch = false
		ablateMaskFree = false
		ablateMaskDrop = false
		ablateXDomination = false
	}()
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		g := gen.NoisyCliques(80, 8, 7, 80, seed)
		want := referenceFor(g)
		for _, algo := range []Algorithm{HBBMC, EBBMC} {
			for _, et := range []int{0, 3} {
				checkAgainstReference(t, "ablated", g, Options{Algorithm: algo, ET: et, GR: seed%2 == 0}, want)
			}
		}
	}
}
