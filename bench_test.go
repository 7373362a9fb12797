package hbbmc_test

// One benchmark per table and figure of the paper's evaluation, runnable
// with `go test -bench=. -benchmem`. Each benchmark exercises the exact
// algorithm grid of its table on a representative subset of the stand-in
// datasets (the full 16-dataset sweep is `go run ./cmd/mcebench -all`).

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/dataset"
)

// benchGraph returns the (process-cached) stand-in graph for a dataset code.
func benchGraph(b *testing.B, name string) *hbbmc.Graph {
	b.Helper()
	spec, ok := dataset.ByName(name)
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	return spec.Build()
}

func runCount(b *testing.B, g *hbbmc.Graph, opts hbbmc.Options) {
	b.Helper()
	b.ReportAllocs()
	var cliques int64
	for i := 0; i < b.N; i++ {
		n, _, err := countOnce(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		cliques = n
	}
	b.ReportMetric(float64(cliques), "cliques")
}

// --- Pivot selection ------------------------------------------------------

// BenchmarkPivotSelect drives the workload most sensitive to the fused
// pivot-selection kernels: BK_Degen with ET and GR disabled spends almost
// all of its enumeration inside the per-node pivot scans (one fused
// intersect+popcount per candidate per node). Kernel regressions that the
// end-to-end gate would smear across phases show up here directly; the
// word-level microbenchmarks live in internal/bitset (BenchmarkKernel*).
func BenchmarkPivotSelect(b *testing.B) {
	g := benchGraph(b, "NA")
	runCount(b, g, hbbmc.Options{Algorithm: hbbmc.BKDegen})
}

// --- Table I: dataset statistics -----------------------------------------

func BenchmarkTable1Stats(b *testing.B) {
	g := benchGraph(b, "NA")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := hbbmc.ProfileGraph(g)
		if p.Delta == 0 {
			b.Fatal("degenerate profile")
		}
	}
}

// --- Table II: HBBMC++ vs the four baselines ------------------------------

func benchTable2(b *testing.B, opts hbbmc.Options) {
	for _, ds := range []string{"NA", "WE", "YO"} {
		g := benchGraph(b, ds)
		b.Run(ds, func(b *testing.B) { runCount(b, g, opts) })
	}
}

func BenchmarkTable2_HBBMCpp(b *testing.B) {
	benchTable2(b, hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: 3, GR: true})
}
func BenchmarkTable2_RRef(b *testing.B) {
	benchTable2(b, hbbmc.Options{Algorithm: hbbmc.BKRef, GR: true})
}
func BenchmarkTable2_RDegen(b *testing.B) {
	benchTable2(b, hbbmc.Options{Algorithm: hbbmc.BKDegen, GR: true})
}
func BenchmarkTable2_RRcd(b *testing.B) {
	benchTable2(b, hbbmc.Options{Algorithm: hbbmc.BKRcd, GR: true})
}
func BenchmarkTable2_RFac(b *testing.B) {
	benchTable2(b, hbbmc.Options{Algorithm: hbbmc.BKFac, GR: true})
}

// --- Table III: ablation and hybrid inner engines --------------------------

func BenchmarkTable3_HBBMCplus(b *testing.B) { // no ET
	runCount(b, benchGraph(b, "NA"), hbbmc.Options{Algorithm: hbbmc.HBBMC, GR: true})
}
func BenchmarkTable3_RefPP(b *testing.B) {
	runCount(b, benchGraph(b, "NA"), hbbmc.Options{Algorithm: hbbmc.HBBMC, Inner: hbbmc.InnerRef, ET: 3, GR: true})
}
func BenchmarkTable3_RcdPP(b *testing.B) {
	runCount(b, benchGraph(b, "NA"), hbbmc.Options{Algorithm: hbbmc.HBBMC, Inner: hbbmc.InnerRcd, ET: 3, GR: true})
}
func BenchmarkTable3_FacPP(b *testing.B) {
	runCount(b, benchGraph(b, "NA"), hbbmc.Options{Algorithm: hbbmc.HBBMC, Inner: hbbmc.InnerFac, ET: 3, GR: true})
}

// --- Table IV: switch depth d ----------------------------------------------

func BenchmarkTable4_Depth1(b *testing.B) {
	runCount(b, benchGraph(b, "NA"), hbbmc.Options{Algorithm: hbbmc.HBBMC, SwitchDepth: 1, ET: 3, GR: true})
}
func BenchmarkTable4_Depth2(b *testing.B) {
	runCount(b, benchGraph(b, "NA"), hbbmc.Options{Algorithm: hbbmc.HBBMC, SwitchDepth: 2, ET: 3, GR: true})
}
func BenchmarkTable4_Depth3(b *testing.B) {
	runCount(b, benchGraph(b, "NA"), hbbmc.Options{Algorithm: hbbmc.HBBMC, SwitchDepth: 3, ET: 3, GR: true})
}

// --- Table V: early-termination threshold t --------------------------------

func benchTable5(b *testing.B, t int) {
	runCount(b, benchGraph(b, "FB"), hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: t, GR: true})
}

func BenchmarkTable5_T0(b *testing.B) { benchTable5(b, 0) }
func BenchmarkTable5_T1(b *testing.B) { benchTable5(b, 1) }
func BenchmarkTable5_T2(b *testing.B) { benchTable5(b, 2) }
func BenchmarkTable5_T3(b *testing.B) { benchTable5(b, 3) }

// --- Table VI: edge orderings ----------------------------------------------

func BenchmarkTable6_Truss(b *testing.B) {
	runCount(b, benchGraph(b, "WE"), hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: 3, GR: true})
}
func BenchmarkTable6_VBBMCdgn(b *testing.B) {
	runCount(b, benchGraph(b, "WE"), hbbmc.Options{Algorithm: hbbmc.BKDegen, ET: 3, GR: true})
}
func BenchmarkTable6_HBBMCdgn(b *testing.B) {
	runCount(b, benchGraph(b, "WE"), hbbmc.Options{Algorithm: hbbmc.HBBMC, EdgeOrder: hbbmc.EdgeOrderDegeneracy, ET: 3, GR: true})
}
func BenchmarkTable6_HBBMCmdg(b *testing.B) {
	runCount(b, benchGraph(b, "WE"), hbbmc.Options{Algorithm: hbbmc.HBBMC, EdgeOrder: hbbmc.EdgeOrderMinDegree, ET: 3, GR: true})
}

// --- Figure 5: synthetic sweeps ---------------------------------------------

var (
	figGraphsOnce sync.Once
	erSmall       *hbbmc.Graph // Figure 5(a) point
	baSmall       *hbbmc.Graph // Figure 5(b) point
	erDense       *hbbmc.Graph // Figure 5(c) point
	baDense       *hbbmc.Graph // Figure 5(d) point
)

func figGraphs() {
	figGraphsOnce.Do(func() {
		erSmall = hbbmc.GenerateER(5000, 5000*20, 1)
		baSmall = hbbmc.GenerateBA(5000, 20, 1)
		erDense = hbbmc.GenerateER(2000, 2000*40, 2)
		baDense = hbbmc.GenerateBA(2000, 40, 2)
	})
}

func benchFigure(b *testing.B, g *hbbmc.Graph) {
	for _, cfg := range []struct {
		name string
		opts hbbmc.Options
	}{
		{"HBBMCpp", hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: 3, GR: true}},
		{"RDegen", hbbmc.Options{Algorithm: hbbmc.BKDegen, GR: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) { runCount(b, g, cfg.opts) })
	}
}

func BenchmarkFigure5a_ER(b *testing.B)      { figGraphs(); benchFigure(b, erSmall) }
func BenchmarkFigure5b_BA(b *testing.B)      { figGraphs(); benchFigure(b, baSmall) }
func BenchmarkFigure5c_ERrho40(b *testing.B) { figGraphs(); benchFigure(b, erDense) }
func BenchmarkFigure5d_BArho40(b *testing.B) { figGraphs(); benchFigure(b, baDense) }

// --- parallel scheduler -------------------------------------------------------

// withProcs raises GOMAXPROCS to workers for one benchmark, so the wN
// variants are not silently clamped (and thus mislabeled) on machines
// with fewer cores.
func withProcs(b *testing.B, workers int) {
	b.Helper()
	if old := runtime.GOMAXPROCS(0); old < workers {
		runtime.GOMAXPROCS(workers)
		b.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// runCountParallel is runCount on the parallel driver.
func runCountParallel(b *testing.B, g *hbbmc.Graph, opts hbbmc.Options, workers int) {
	b.Helper()
	withProcs(b, workers)
	b.ReportAllocs()
	opts.Workers = workers
	var cliques int64
	for i := 0; i < b.N; i++ {
		n, _, err := countOnce(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		cliques = n
	}
	b.ReportMetric(float64(cliques), "cliques")
}

// BenchmarkParallelScaling sweeps worker counts over the skewed stand-in
// graphs; compare w1 (sequential fallback) against w2..w8 for the
// scheduler's speedup.
func BenchmarkParallelScaling(b *testing.B) {
	for _, ds := range []string{"NA", "WE"} {
		g := benchGraph(b, ds)
		for _, cfg := range []struct {
			name string
			opts hbbmc.Options
		}{
			{"HBBMCpp", hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: 3, GR: true}},
			{"RDegen", hbbmc.Options{Algorithm: hbbmc.BKDegen, GR: true}},
		} {
			for _, w := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/w%d", ds, cfg.name, w), func(b *testing.B) {
					runCountParallel(b, g, cfg.opts, w)
				})
			}
		}
	}
}

// BenchmarkParallelDeepSwitch exercises the newly parallel SwitchDepth > 1
// hybrid, which previously fell back to the sequential driver.
func BenchmarkParallelDeepSwitch(b *testing.B) {
	g := benchGraph(b, "NA")
	opts := hbbmc.Options{Algorithm: hbbmc.HBBMC, SwitchDepth: 2, ET: 3, GR: true}
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) { runCountParallel(b, g, opts, w) })
	}
}

// BenchmarkParallelEmitBatch measures the emit path under contention: a
// live callback at 8 workers with per-clique locking (batch=1) vs the
// default batched flushing.
func BenchmarkParallelEmitBatch(b *testing.B) {
	g := benchGraph(b, "NA")
	for _, batch := range []int{1, 256} {
		opts := hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: 3, GR: true, EmitBatchSize: batch}
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			withProcs(b, 8)
			b.ReportAllocs()
			opts.Workers = 8
			for i := 0; i < b.N; i++ {
				sess, err := hbbmc.NewSession(g, opts)
				if err != nil {
					b.Fatal(err)
				}
				var n int64
				if _, err := sess.Enumerate(context.Background(), func([]int32) bool { n++; return true }); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no cliques emitted")
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkSubstrateProfile(b *testing.B) {
	g := benchGraph(b, "YO")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = hbbmc.ProfileGraph(g)
	}
}

func BenchmarkSubstrateMoonMoser(b *testing.B) {
	g := hbbmc.GenerateMoonMoser(9) // 3^9 = 19683 maximal cliques
	runCount(b, g, hbbmc.DefaultOptions())
}
