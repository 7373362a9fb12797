package main

import (
	"math/rand"
	"sort"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
)

func addClique(b *graph.Builder, members []int32) {
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			b.AddEdge(members[i], members[j])
		}
	}
}

func randomSubset(rng *rand.Rand, n, k int) []int32 {
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		v := int32(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// smallGraph is one of the mixed-small workload's graphs.
type smallGraph struct {
	name string
	g    *graph.Graph
}

// smallRecipeSeed is the seed the mixed-small graphs are drawn with. A run's
// seed relabels them (see relabel) instead of re-drawing them: a re-drawn
// SBM graph moves its clique count by ±5% and its 4-clique count by ±25%
// between seeds, which would add to the run-to-run spread.
const smallRecipeSeed = 1

// smallScale sizes the mixed-small graphs: each is smallScale copies' worth
// of a 400–800-vertex base shape (the SBM graph has smallScale× the
// communities, the others smallScale× the vertices, planted cliques and
// noise edges). At 8, jobs take about 12 ms at the median and 60 ms at the
// 99th percentile on a 2-vCPU VM, and the fixed per-job costs of HTTP,
// admission and the journal are still a large share of them.
const smallScale = 8

// smallGraphs builds the four mixed-small graphs at seed: a WE-like graph
// whose one oversized clique makes τ = δ−1 (the hybrid condition fails), a
// community (SBM) graph, a power-law cluster graph and noisy planted
// cliques, each relabelled by the seed.
func smallGraphs(seed int64) []smallGraph {
	const r, k = smallRecipeSeed, smallScale
	we := graph.NewBuilder(600 * k)
	rng := rand.New(rand.NewSource(r))
	base := gen.BA(600*k, 2, r)
	for e := 0; e < base.NumEdges(); e++ {
		u, v := base.EdgeEndpoints(int32(e))
		we.AddEdge(u, v)
	}
	addClique(we, randomSubset(rng, 600*k, 24))
	for c := 0; c < 20*k; c++ {
		addClique(we, randomSubset(rng, 600*k, 6))
	}
	gs := []smallGraph{
		{"we", we.MustBuild()},
		{"sbm", gen.SBM(gen.SBMConfig{Communities: 8 * k, Size: 50, PIn: 0.3, POut: 0.01 / k}, r+1)},
		{"plc", gen.PowerLawCluster(800*k, 6, 0.5, r+2)},
		{"noisy", gen.NoisyCliques(500*k, 40*k, 9, 1500*k, r+3)},
	}
	for i := range gs {
		gs[i].g = relabel(gs[i].g, seed+int64(i))
	}
	return gs
}

// perm is the vertex relabelling of seed on n vertices.
func perm(seed int64, n int) []int32 {
	p := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int32, n)
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}

// relabel returns g with its vertices relabelled by perm(seed). The
// structure, and so the work of every query, stays; every input byte, the
// orderings' tie-breaks and the split of work between workers change.
func relabel(g *graph.Graph, seed int64) *graph.Graph {
	p := perm(seed, g.NumVertices())
	b := graph.NewBuilder(g.NumVertices())
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(int32(e))
		b.AddEdge(p[u], p[v])
	}
	return b.MustBuild()
}
