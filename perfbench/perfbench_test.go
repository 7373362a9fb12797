package main

import (
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/verify"
)

// Relabelling the reference cliques must give the reference cliques of the
// relabelled graph: the OR oracle relies on it.
func TestRelabelledCliquesMatchReference(t *testing.T) {
	g := gen.NoisyCliques(300, 30, 8, 900, 5)
	p := perm(9, g.NumVertices())
	var mapped, direct digest
	for _, c := range verify.MaximalCliques(g) {
		m := make([]int32, len(c))
		for i, v := range c {
			m[i] = p[v]
		}
		mapped.add(m)
	}
	for _, c := range verify.MaximalCliques(relabel(g, 9)) {
		direct.add(c)
	}
	if mapped != direct || mapped.N == 0 {
		t.Fatalf("mapped %+v, direct %+v", mapped, direct)
	}
}

// The digest ignores clique and vertex order and sees duplicates.
func TestDigest(t *testing.T) {
	var a, b, c digest
	a.add([]int32{3, 1, 2})
	a.add([]int32{5, 4})
	b.add([]int32{4, 5})
	b.add([]int32{2, 3, 1})
	c.add([]int32{1, 2, 3})
	c.add([]int32{1, 2, 3})
	if a != b {
		t.Fatalf("order changed the digest: %+v vs %+v", a, b)
	}
	if c == a {
		t.Fatal("a duplicate clique went unnoticed")
	}
}

func TestParseInts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int32
	}{
		{`[12,0,7]}` + "\n", []int32{12, 0, 7}},
		{"4 55 6\n", []int32{4, 55, 6}},
		{"9", []int32{9}},
		{"]", nil},
	} {
		if got := parseInts([]byte(tc.in), nil); !slices.Equal(got, tc.want) {
			t.Errorf("parseInts(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCovered(t *testing.T) {
	if got := covered([][2]int64{{0, 10}, {5, 15}, {20, 30}}); got != 25 {
		t.Fatalf("covered = %d, want 25", got)
	}
}

// A burst of slow jobs in one part of a long run leaves the metrics where
// the other parts put them; a short run is one part.
func TestEndToEndPartsIgnoreABurst(t *testing.T) {
	// Ops complete 1 ms apart, and 10 ms apart during the burst.
	recs := make([]opRecord, maxParts*minPartJobs)
	for i := range recs {
		recs[i] = opRecord{op: opSpec{typ: "count"}, lat: time.Duration(1+i%100) * time.Millisecond,
			cliques: 10, at: time.Duration(i+1+9*min(i+1, minPartJobs)) * time.Millisecond}
		if i < minPartJobs {
			recs[i].lat = time.Second
		}
	}
	m := map[string]metric{}
	endToEnd(recs, recs[len(recs)-1].at, []float64{1}, m)
	for name, want := range map[string]float64{"job_p50_ms": 50.5, "job_p99_ms": 99, "jobs_per_s": 1000} {
		if got := m[name].Value; got != want {
			t.Errorf("%s with a burst = %v, want %v", name, got, want)
		}
	}
	short := recs[:1500]
	endToEnd(short, short[len(short)-1].at, []float64{1}, m)
	if got := m["job_p99_ms"].Value; got != 1000 {
		t.Errorf("job_p99_ms of a short run = %v, want 1000", got)
	}
}

// The seed shuffles the mixed-small op list but leaves its mix alone.
func TestSmallOpsMixIsSeedFree(t *testing.T) {
	a, b := smallOps(1), smallOps(2)
	mix := func(ops []opSpec) map[opSpec]int {
		m := map[opSpec]int{}
		for _, o := range ops {
			m[o]++
		}
		return m
	}
	if !maps.Equal(mix(a), mix(b)) || slices.Equal(a, b) {
		t.Fatal("the seed changed the mix, or did not change the order")
	}
	if n, cli := len(a), mix(a)[opSpec{typ: "count", algo: "bkref", cli: true, workers: 1}]; n != 4*5*3*smallRounds || cli != smallCLI {
		t.Fatalf("%d ops, %d through mce per pairing", n, cli)
	}
}
