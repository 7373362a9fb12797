// Command mceverify checks a clique file against a graph: every line must
// be a clique, maximal, and distinct; optionally the total is compared with
// a fresh enumeration by a reference engine. The graph loads in any
// supported format (auto-detected: edge list, DIMACS, MatrixMarket, METIS,
// .hbg snapshot, optionally gzipped), so the verified input can be the
// exact file mce consumed.
//
// Usage:
//
//	mce -in graph.txt -out cliques.txt
//	mceverify -graph graph.txt -cliques cliques.txt -recount
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	hbbmc "github.com/graphmining/hbbmc"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph file, any supported format (required)")
		cliquePath = flag.String("cliques", "", "clique file, one clique per line (required)")
		format     = flag.String("format", "auto", "graph format: auto|edgelist|dimacs|mtx|metis|hbg")
		recount    = flag.Bool("recount", false, "re-enumerate with BK_Degen and compare the count")
	)
	flag.Parse()
	if *graphPath == "" || *cliquePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	gf, err := hbbmc.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	g, err := hbbmc.LoadFile(*graphPath, hbbmc.LoadOptions{Format: gf})
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*cliquePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo, count := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		clique := make([]int32, 0, len(fields))
		for _, fld := range fields {
			v, err := strconv.ParseInt(fld, 10, 32)
			if err != nil || v < 0 || int(v) >= g.NumVertices() {
				fatal(fmt.Errorf("line %d: bad vertex %q", lineNo, fld))
			}
			clique = append(clique, int32(v))
		}
		sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
		for i := 1; i < len(clique); i++ {
			if clique[i] == clique[i-1] {
				fatal(fmt.Errorf("line %d: repeated vertex %d", lineNo, clique[i]))
			}
		}
		key := fmt.Sprint(clique)
		if seen[key] {
			fatal(fmt.Errorf("line %d: duplicate clique %v", lineNo, clique))
		}
		seen[key] = true
		if !g.IsClique(clique) {
			fatal(fmt.Errorf("line %d: %v is not a clique", lineNo, clique))
		}
		if ext := findExtension(g, clique); ext >= 0 {
			fatal(fmt.Errorf("line %d: %v is not maximal (vertex %d extends it)", lineNo, clique, ext))
		}
		count++
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("mceverify: %d cliques verified (clique + maximal + distinct)\n", count)

	if *recount {
		sess, err := hbbmc.NewSession(g, hbbmc.Options{Algorithm: hbbmc.BKDegen, GR: true})
		if err != nil {
			fatal(err)
		}
		want, _, err := sess.Count(context.Background())
		if err != nil {
			fatal(err)
		}
		if int64(count) != want {
			fatal(fmt.Errorf("file has %d cliques but the graph has %d", count, want))
		}
		fmt.Printf("mceverify: count matches an independent enumeration (%d)\n", want)
	}
}

// findExtension returns a vertex adjacent to every member of c, or -1.
func findExtension(g *hbbmc.Graph, c []int32) int32 {
	if len(c) == 0 {
		if g.NumVertices() > 0 {
			return 0
		}
		return -1
	}
	min := c[0]
	for _, v := range c[1:] {
		if g.Degree(v) < g.Degree(min) {
			min = v
		}
	}
	for _, z := range g.Neighbors(min) {
		in := false
		for _, u := range c {
			if u == z {
				in = true
				break
			}
		}
		if in {
			continue
		}
		ok := true
		for _, u := range c {
			if u != min && !g.HasEdge(z, u) {
				ok = false
				break
			}
		}
		if ok {
			return z
		}
	}
	return -1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mceverify:", err)
	os.Exit(1)
}
