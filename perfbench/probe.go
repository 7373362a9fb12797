package main

import (
	"context"
	"fmt"
	"time"

	"github.com/graphmining/hbbmc/internal/core"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/order"
	"github.com/graphmining/hbbmc/internal/reduce"
	"github.com/graphmining/hbbmc/internal/service"
	"github.com/graphmining/hbbmc/internal/truss"
)

// layerCounts are the exact work counts the traced run's in-process layer
// calls report, summed over the workload's graphs.
type layerCounts struct {
	residual, triangles          int64
	calls, vertexCalls, branches int64
	plexBranches, cliques        int64
	etCliques                    int64
}

// probeLayers calls each layer below the service directly on every graph
// of the workload, one span per call. It returns one error per graph (nil
// when every call succeeded and every count matched the oracle).
func probeLayers(e *env, fx *fixture, id int64) (layerCounts, []error) {
	var lc layerCounts
	errs := make([]error, len(fx.datasets))
	for i, d := range fx.datasets {
		root := e.tr.begin("bench.probe", id, -1)
		errs[i] = probeGraph(e, d, id, root, &lc)
		e.tr.end(root)
	}
	return lc, errs
}

func probeGraph(e *env, d dataset, id int64, root int, lc *layerCounts) (first error) {
	ctx := context.Background()
	fail := func(err error) {
		if first == nil {
			first = err
		}
	}
	var (
		g   *graph.Graph
		err error
		red *reduce.Result
	)
	e.tr.do("graph.load", id, root, func() { g, err = graph.LoadBinaryFile(d.path) })
	if err != nil {
		return err
	}
	e.tr.do("reduce.apply", id, root, func() { red = reduce.Apply(g, reduce.Options{}) })
	lc.residual += int64(red.Residual.NumVertices())
	e.tr.do("order.degeneracy", id, root, func() { order.DegeneracyOrdering(red.Residual) })
	e.tr.do("truss.decompose", id, root, func() { truss.Decompose(red.Residual) })
	e.tr.do("truss.triangles", id, root, func() { lc.triangles += truss.CountTriangles(red.Residual) })

	sessions := map[string]*core.Session{}
	for _, a := range []struct {
		name string
		algo core.Algorithm
	}{{"hbbmc", core.HBBMC}, {"bkref", core.BKRef}} {
		opts := core.Defaults()
		opts.Algorithm = a.algo
		e.tr.do("core.session_"+a.name, id, root, func() { sessions[a.name], err = core.NewSession(g, opts) })
		if err != nil {
			return err
		}
	}
	want := e.want[d.name].All.N
	check := func(what string, n int64, err error) {
		if err == nil && n != want {
			err = fmt.Errorf("%s on %s: %d cliques, want %d", what, d.name, n, want)
		}
		if err != nil {
			fail(err)
		}
	}
	var st *core.Stats
	e.tr.do("core.count_hbbmc", id, root, func() {
		var n int64
		n, st, err = sessions["hbbmc"].CountWith(ctx, core.QueryOptions{Workers: 2})
		check("count", n, err)
	})
	if st != nil {
		lc.calls += st.Calls
		lc.vertexCalls += st.VertexCalls
		lc.branches += st.TopBranches
		lc.plexBranches += st.PlexBranches
		lc.cliques += st.Cliques
		lc.etCliques += st.ETCliques
	}
	e.tr.do("core.count_bkref", id, root, func() {
		n, _, err := sessions["bkref"].CountWith(ctx, core.QueryOptions{Workers: 2})
		check("bkref count", n, err)
	})
	e.tr.do("core.count_w1", id, root, func() {
		n, _, err := sessions["hbbmc"].CountWith(ctx, core.QueryOptions{Workers: 1})
		check("1-worker count", n, err)
	})
	e.tr.do("core.enumerate", id, root, func() {
		st, err := sessions["hbbmc"].EnumerateWith(ctx, core.QueryOptions{Workers: 2}, func([]int32) bool { return true })
		var n int64
		if st != nil {
			n = st.Cliques
		}
		check("enumerate", n, err)
	})
	return first
}

// probeService runs one job of each type on the workload's first graph
// against its front server, plus the mce binary with and without output,
// so every workload's traced run reports the per-type and CLI layers. One
// more job, under bkdegen, needs a session the OR workloads' loops never
// build, so every workload reports a session build.
func probeService(e *env, fx *fixture, first int64) []opRecord {
	var recs []opRecord
	id := first
	run := func(s opSpec) {
		root := e.tr.begin("bench.op", id, -1)
		recs = append(recs, runOp(e, fx, s, id, root))
		e.tr.end(root)
		id++
	}
	for _, typ := range smallTypes {
		run(opSpec{typ: typ, workers: 2})
	}
	run(opSpec{typ: "max_clique", algo: "bkdegen", workers: 2})
	// On a small graph one CLI run is a few ms; repeat the pair for a
	// second so the difference between the two is not noise.
	start := time.Now()
	for pairs := 0; pairs < maxCLIPairs && (pairs == 0 || time.Since(start) < time.Second); pairs++ {
		run(opSpec{typ: "count", cli: true, workers: 2})
		run(opSpec{typ: "enumerate", cli: true, workers: 2})
	}
	return recs
}

// maxCLIPairs caps the CLI probe's repetitions.
const maxCLIPairs = 25

// probeCluster starts a coordinator with two single-slot peers on the
// workload's first graph and runs one count job through it; no workload
// runs a cluster itself. It returns the job and the cluster's /metrics
// change.
func probeCluster(e *env, fx *fixture, id int64) (opRecord, metricDiff, error) {
	cl, err := startSystem(e, workload{name: "probe", cluster: true}, fx.datasets[:1], service.Config{}, -1)
	if err != nil {
		return opRecord{}, nil, err
	}
	defer cl.close()
	if err := scrapeBefore(cl); err != nil {
		return opRecord{}, nil, err
	}
	root := e.tr.begin("bench.op", id, -1)
	rec := runOp(e, cl, opSpec{typ: "count", workers: 2}, id, root)
	e.tr.end(root)
	nodes, err := scrapeDiffs(cl)
	return rec, sumDiffs(nodes), err
}
