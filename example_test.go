package hbbmc_test

import (
	"context"
	"errors"
	"fmt"
	"sort"

	hbbmc "github.com/graphmining/hbbmc"
)

// ExampleNewSession shows the session API: preprocessing is computed once,
// then any number of queries — here a range-over-func iteration and a
// count — reuse it.
func ExampleNewSession() {
	b := hbbmc.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()

	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	var cliques [][]int32
	for c := range sess.Cliques(ctx) {
		cc := append([]int32(nil), c...) // the yielded slice is reused
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		cliques = append(cliques, cc)
	}
	sort.Slice(cliques, func(i, j int) bool { return fmt.Sprint(cliques[i]) < fmt.Sprint(cliques[j]) })
	for _, c := range cliques {
		fmt.Println(c)
	}

	// The second query skips preprocessing entirely.
	n, stats, _ := sess.Count(ctx)
	fmt.Println(n, stats.OrderingTime)
	// Output:
	// [0 1 2]
	// [2 3]
	// 2 0s
}

// ExampleSession_Enumerate shows early termination by clique budget: the
// run stops with ErrStopped once Options.MaxCliques cliques were reported.
func ExampleSession_Enumerate() {
	g := hbbmc.GenerateMoonMoser(4) // 81 maximal cliques
	opts := hbbmc.DefaultOptions()
	opts.MaxCliques = 5
	sess, err := hbbmc.NewSession(g, opts)
	if err != nil {
		panic(err)
	}
	delivered := 0
	_, err = sess.Enumerate(context.Background(), func(c []int32) bool {
		delivered++
		return true // returning false would also stop the run
	})
	fmt.Println(delivered, errors.Is(err, hbbmc.ErrStopped))
	// Output:
	// 5 true
}

// ExampleSession_Count compares two engines on the same graph.
func ExampleSession_Count() {
	g := hbbmc.GenerateMoonMoser(4) // 3^4 = 81 maximal cliques
	ctx := context.Background()
	hybridSess, _ := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	classicSess, _ := hbbmc.NewSession(g, hbbmc.Options{Algorithm: hbbmc.BKDegen})
	hybrid, _, _ := hybridSess.Count(ctx)
	classic, _, _ := classicSess.Count(ctx)
	fmt.Println(hybrid, classic)
	// Output:
	// 81 81
}

// ExampleProfileGraph inspects the structural parameters the paper's
// complexity condition depends on.
func ExampleProfileGraph() {
	g := hbbmc.GenerateMoonMoser(3)
	p := hbbmc.ProfileGraph(g)
	fmt.Printf("n=%d m=%d δ=%d τ=%d\n", p.N, p.M, p.Delta, p.Tau)
	// Output:
	// n=9 m=27 δ=6 τ=3
}

// ExampleCountKCliques counts fixed-size cliques; the one-shot wrapper
// runs Session.CountKCliques on the session kernels under the default
// options.
func ExampleCountKCliques() {
	g := hbbmc.GenerateMoonMoser(3) // complete 3-partite, parts of 3
	triangles, _ := hbbmc.CountKCliques(g, 3)
	fmt.Println(triangles) // C(3,3)·3^3
	// Output:
	// 27
}

// Example_maxClique solves the exact maximum-clique problem on a session:
// branch and bound over the same cached branches enumeration uses, with
// the witness clique as the result.
func Example_maxClique() {
	b := hbbmc.NewBuilder(6)
	// A 4-clique {0,1,2,3} plus a triangle {3,4,5} hanging off it.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(3, 5)
	b.AddEdge(4, 5)
	g := b.MustBuild()

	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		panic(err)
	}
	clique, stats, err := sess.MaxClique(context.Background(), hbbmc.QueryOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(clique, stats.MaxCliqueSize)
	// Output:
	// [0 1 2 3] 4
}

// Example_topK asks a session for the k largest maximal cliques, returned
// size-descending (ties broken lexicographically).
func Example_topK() {
	b := hbbmc.NewBuilder(7)
	// A 4-clique, a separate triangle, and one stray edge.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(4, 6)
	b.AddEdge(5, 6)
	g := b.MustBuild()

	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		panic(err)
	}
	top, _, err := sess.TopK(context.Background(), 2, hbbmc.QueryOptions{})
	if err != nil {
		panic(err)
	}
	for _, c := range top {
		fmt.Println(c)
	}
	// Output:
	// [0 1 2 3]
	// [4 5 6]
}
