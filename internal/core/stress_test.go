package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/verify"
)

// TestStressGrid sweeps a large randomized configuration grid. It runs a
// reduced sweep under -short.
func TestStressGrid(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 25
	}
	rng := rand.New(rand.NewSource(999))
	for iter := 0; iter < iters; iter++ {
		var g = randomGraph(rng, 1+rng.Intn(45), rng.Intn(260))
		switch iter % 5 {
		case 1:
			g = gen.NoisyCliques(20+rng.Intn(30), 2+rng.Intn(6), 4+rng.Intn(5), rng.Intn(60), rng.Int63())
		case 2:
			g = gen.BA(10+rng.Intn(40), 1+rng.Intn(4), rng.Int63())
		case 3:
			g = gen.SBM(gen.SBMConfig{Communities: 2 + rng.Intn(3), Size: 4 + rng.Intn(8),
				PIn: 0.3 + 0.5*rng.Float64(), POut: 0.1 * rng.Float64()}, rng.Int63())
		case 4:
			g = gen.PowerLawCluster(10+rng.Intn(40), 1+rng.Intn(4), rng.Float64(), rng.Int63())
		}
		want := referenceFor(g)
		opts := Options{
			Algorithm:   allAlgorithms[rng.Intn(len(allAlgorithms))],
			ET:          rng.Intn(4),
			GR:          rng.Intn(2) == 0,
			GRMaxDegree: rng.Intn(6),
			SwitchDepth: 1 + rng.Intn(4),
			EdgeOrder:   EdgeOrderKind(rng.Intn(3)),
			Inner:       InnerAlgorithm(rng.Intn(4)),
		}
		label := fmt.Sprintf("iter%d/%+v", iter, opts)
		checkAgainstReference(t, label, g, opts, want)
	}
}

// TestMaskedPathsExercised asserts that the stress surface actually reaches
// the subtle code paths: masked adjacency with nonempty X at edge branches,
// early termination inside hybrid branches, deep edge branching, and leaf
// suppression under reduction.
func TestMaskedPathsExercised(t *testing.T) {
	g := gen.NoisyCliques(120, 14, 9, 300, 33)

	_, hd2, err := sessionCount(g, Options{Algorithm: HBBMC, SwitchDepth: 2, ET: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hd2.EdgeCalls == 0 {
		t.Error("SwitchDepth=2 must go through edgeRec")
	}
	if hd2.VertexCalls == 0 {
		t.Error("SwitchDepth=2 must still reach the vertex phase")
	}

	_, he, err := sessionCount(g, Options{Algorithm: EBBMC, ET: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if he.VertexCalls != 0 {
		t.Error("pure EBBMC must never enter the vertex phase")
	}
	if he.EdgeCalls == 0 {
		t.Error("pure EBBMC must recurse on edges")
	}

	_, hgr, err := sessionCount(g, Options{Algorithm: HBBMC, GR: true, ET: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hgr.ReducedVertices == 0 {
		t.Error("reduction should remove low-degree noise vertices")
	}

	_, h1, err := sessionCount(g, Options{Algorithm: HBBMC, ET: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h1.EarlyTerminations == 0 {
		t.Error("planted cliques should early-terminate")
	}
	if h1.ETCliques == 0 {
		t.Error("early terminations should emit cliques")
	}

	// All configurations agree on the count.
	if hd2.Cliques != he.Cliques || he.Cliques != hgr.Cliques || hgr.Cliques != h1.Cliques {
		t.Errorf("counts diverge: d2=%d ebbmc=%d gr=%d h1=%d",
			hd2.Cliques, he.Cliques, hgr.Cliques, h1.Cliques)
	}
}

// TestLargerSmoke runs the default configuration on a moderately large graph
// and cross-checks the count against BKDegen (an independent engine path).
func TestLargerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large smoke test skipped in short mode")
	}
	g := gen.BA(3000, 8, 77)
	c1, s1, err := sessionCount(g, Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := sessionCount(g, Options{Algorithm: BKDegen, GR: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c3, _, err := sessionCount(g, Options{Algorithm: BKRcd}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || c2 != c3 {
		t.Fatalf("counts diverge on BA graph: hbbmc=%d degen=%d rcd=%d", c1, c2, c3)
	}
	if s1.Tau <= 0 || s1.Cliques == 0 {
		t.Errorf("suspicious stats: %+v", s1)
	}
}

// TestEmittedCliquesAreValidOnMediumGraphs checks the structural invariants
// (clique, maximal, distinct) without a full reference comparison, on graphs
// too large for the reference enumerator's comfort.
func TestEmittedCliquesAreValidOnMediumGraphs(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{Communities: 6, Size: 20, PIn: 0.5, POut: 0.02}, 55)
	cliques, _, err := sessionCollect(g, Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckAllMaximal(g, cliques); err != nil {
		t.Fatal(err)
	}
	if len(cliques) == 0 {
		t.Fatal("no cliques found")
	}
}
