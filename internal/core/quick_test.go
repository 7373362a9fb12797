package core

import (
	"testing"
	"testing/quick"

	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

// graphFromBits builds a graph on n vertices whose edge set is drawn from a
// bit stream, letting testing/quick explore graph space directly.
func graphFromBits(n int, bits []byte) *graph.Graph {
	b := graph.NewBuilder(n)
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if idx/8 < len(bits) && bits[idx/8]&(1<<(idx%8)) != 0 {
				b.AddEdge(int32(i), int32(j))
			}
			idx++
		}
	}
	return b.MustBuild()
}

// TestQuickHBBMCMatchesReference drives the full HBBMC++ configuration with
// quick-generated graphs and compares against the independent reference.
func TestQuickHBBMCMatchesReference(t *testing.T) {
	f := func(nRaw uint8, bits []byte) bool {
		n := 1 + int(nRaw%18)
		g := graphFromBits(n, bits)
		got, _, err := sessionCollect(g, Defaults(), 1)
		if err != nil {
			return false
		}
		want := verify.MaximalCliques(g)
		return verify.Diff(got, want) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickAlgorithmsAgreePairwise checks that two differently-structured
// engines always agree, across quick-generated graphs and configurations.
func TestQuickAlgorithmsAgreePairwise(t *testing.T) {
	f := func(nRaw, algoRaw, etRaw uint8, grRaw bool, bits []byte) bool {
		n := 1 + int(nRaw%16)
		g := graphFromBits(n, bits)
		algos := []Algorithm{BKPivot, BKRef, BKDegen, BKDegree, BKRcd, BKFac, EBBMC, HBBMC}
		algo := algos[int(algoRaw)%len(algos)]
		opts := Options{Algorithm: algo, ET: int(etRaw % 4), GR: grRaw}
		a, _, err := sessionCount(g, opts, 1)
		if err != nil {
			return false
		}
		b, _, err := sessionCount(g, Options{Algorithm: BKDegen}, 1)
		if err != nil {
			return false
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickStatsInvariants checks counter invariants that must hold for any
// input: b0 ≤ b, clique totals include reduction cliques, ET never changes
// the result.
func TestQuickStatsInvariants(t *testing.T) {
	f := func(nRaw uint8, bits []byte) bool {
		n := 1 + int(nRaw%20)
		g := graphFromBits(n, bits)
		_, withET, err := sessionCount(g, Options{Algorithm: HBBMC, ET: 3, GR: true}, 1)
		if err != nil {
			return false
		}
		_, noET, err := sessionCount(g, Options{Algorithm: HBBMC, ET: 0, GR: true}, 1)
		if err != nil {
			return false
		}
		if withET.EarlyTerminations > withET.PlexBranches {
			return false
		}
		if withET.Cliques != noET.Cliques {
			return false
		}
		if noET.PlexBranches != 0 || noET.EarlyTerminations != 0 {
			return false
		}
		if withET.ETRatio() < 0 || withET.ETRatio() > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
