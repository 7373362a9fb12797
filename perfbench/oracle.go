package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"

	hbbmc "github.com/graphmining/hbbmc"
	standin "github.com/graphmining/hbbmc/internal/dataset"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/kclique"
	"github.com/graphmining/hbbmc/internal/verify"
)

// digest is an order-independent summary of a clique set: the number of
// cliques and the wrapping sum of a hash of each clique's sorted vertex
// set. Two streams agree when both fields do, whatever order they arrived
// in; a duplicate or a missing clique changes both.
type digest struct {
	N   int64  `json:"n"`
	Sum uint64 `json:"sum"`
}

// add folds one clique in; it sorts c in place.
func (d *digest) add(c []int32) {
	slices.Sort(c)
	h := uint64(len(c))
	for _, v := range c {
		h = mix(h ^ uint64(uint32(v)))
	}
	d.N++
	d.Sum += h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// answer is the oracle's expected result for one graph.
type answer struct {
	All      digest `json:"all"`       // every maximal clique
	MaxSize  int    `json:"max_size"`  // ω
	Top10    digest `json:"top10"`     // the 10 largest, size-desc then lex-asc
	KCliques int64  `json:"kcliques4"` // 4-vertex cliques, by kclique.Count
}

// inputs is what a run draws from its seed: the graphs, written as .hbg
// snapshots, the oracle's answers on them and, for mixed-small, the
// session budget.
type inputs struct {
	Graphs  []string          `json:"graphs"` // in op-list order; <name>.hbg
	Answers map[string]answer `json:"answers"`
	Budget  int64             `json:"session_budget,omitempty"`
}

// loadInputs returns the directory holding the workload's inputs at seed,
// and their description. A child process makes them once per seed and
// they are kept under dir: generating the graphs and running the reference
// enumerator then count neither in this process's peak RSS nor in any
// timed window.
func loadInputs(dir, workload string, seed int64) (string, inputs, error) {
	var in inputs
	inDir := filepath.Join(dir, fmt.Sprintf("inputs-%s-%d", graphSet(workload), seed))
	path := filepath.Join(inDir, "inputs.json")
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		self, err := os.Executable()
		if err != nil {
			return "", in, err
		}
		cmd := exec.Command(self, "-make-inputs", inDir, "-workload", workload, "-seed", fmt.Sprint(seed), "-dir", dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return "", in, fmt.Errorf("making inputs: %w", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", in, err
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return "", in, fmt.Errorf("%s: %w", path, err)
	}
	return inDir, in, nil
}

// graphSet names the graphs a workload runs on: the OR workloads share one.
func graphSet(workload string) string {
	if workload == "mixed-small" {
		return "small"
	}
	return "or"
}

// makeInputs is the child process behind loadInputs. inputs.json is
// written last, so its presence means the directory is complete.
func makeInputs(inDir, workload string, seed int64, dir string) error {
	if err := os.MkdirAll(inDir, 0o755); err != nil {
		return err
	}
	in := inputs{Answers: map[string]answer{}}
	add := func(name string, g *graph.Graph, a answer, err error) error {
		if err != nil {
			return err
		}
		in.Graphs = append(in.Graphs, name)
		in.Answers[name] = a
		return g.SaveBinaryFile(filepath.Join(inDir, name+".hbg"))
	}
	if graphSet(workload) == "or" {
		g := orWorkloadGraph(seed)
		a, err := orAnswer(dir, seed, g)
		if err := add("or", g, a, err); err != nil {
			return err
		}
	} else {
		for _, sg := range smallGraphs(seed) {
			a, err := smallAnswer(sg.g)
			if err := add(sg.name, sg.g, a, err); err != nil {
				return err
			}
			for _, algo := range smallAlgos {
				opts := hbbmc.DefaultOptions()
				opts.Algorithm, _ = hbbmc.ParseAlgorithm(algo)
				sess, err := hbbmc.NewSession(sg.g, opts)
				if err != nil {
					return err
				}
				in.Budget += sess.MemoryEstimate()
			}
		}
		in.Budget = in.Budget * smallBudgetShare / 100
	}
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	tmp := filepath.Join(inDir, "inputs.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(inDir, "inputs.json"))
}

// smallAnswer runs the reference enumerator and the independent k-clique
// counter on one small graph.
func smallAnswer(g *graph.Graph) (answer, error) {
	cliques := verify.MaximalCliques(g)
	var a answer
	for _, c := range cliques {
		a.All.add(c)
		a.MaxSize = max(a.MaxSize, len(c))
	}
	slices.SortFunc(cliques, topOrder)
	for _, c := range cliques[:min(10, len(cliques))] {
		a.Top10.add(c)
	}
	k, err := kclique.Count(g, 4)
	a.KCliques = k
	return a, err
}

// topOrder is the order of a top_k answer on sorted cliques: larger first,
// then lexicographically smaller.
func topOrder(x, y []int32) int {
	if len(x) != len(y) {
		return len(y) - len(x)
	}
	return slices.Compare(x, y)
}

// orAnswer is the expected answer on g = orWorkloadGraph(seed). That graph
// is the OR graph with its vertices relabelled, so its maximal cliques are
// the reference enumerator's cliques of the OR graph under the same
// relabelling: the reference run (about 12 s) happens once per checkout
// and is kept as a binary clique list, which each seed then maps.
func orAnswer(dir string, seed int64, g *graph.Graph) (answer, error) {
	base := orBase()
	path := filepath.Join(dir, fmt.Sprintf("or-cliques-%08x.bin", base.Fingerprint()))
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := writeCliques(path, verify.MaximalCliques(base)); err != nil {
			return answer{}, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return answer{}, err
	}
	defer f.Close()
	p := perm(seed, base.NumVertices())
	var a answer
	a.KCliques, err = kclique.Count(g, 4)
	if err != nil {
		return a, err
	}
	var top [][]int32 // the 10 best cliques so far, in topOrder
	r := bufio.NewReaderSize(f, 1<<16)
	c := make([]int32, 0, 64)
	var buf [2]byte
	for {
		size, err := r.ReadByte()
		if err == io.EOF {
			for _, c := range top {
				a.Top10.add(c)
			}
			return a, nil
		}
		if err != nil {
			return a, err
		}
		c = c[:0]
		for i := 0; i < int(size); i++ {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return a, fmt.Errorf("%s: truncated: %w", path, err)
			}
			c = append(c, p[binary.LittleEndian.Uint16(buf[:])])
		}
		a.All.add(c)
		a.MaxSize = max(a.MaxSize, len(c))
		if len(top) < 10 || topOrder(c, top[len(top)-1]) < 0 {
			i, _ := slices.BinarySearchFunc(top, c, topOrder)
			top = slices.Insert(top, i, slices.Clone(c))
			top = top[:min(len(top), 10)]
		}
	}
}

// writeCliques stores cliques as a size byte plus 16-bit vertex ids each
// (the OR graph has 15,000 vertices and ω = 21).
func writeCliques(path string, cliques [][]int32) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var buf [2]byte
	for _, c := range cliques {
		if len(c) > math.MaxUint8 {
			f.Close()
			return fmt.Errorf("clique of %d vertices does not fit the clique list", len(c))
		}
		w.WriteByte(byte(len(c)))
		for _, v := range c {
			if v > math.MaxUint16 {
				f.Close()
				return fmt.Errorf("vertex %d does not fit the clique list", v)
			}
			binary.LittleEndian.PutUint16(buf[:], uint16(v))
			w.Write(buf[:])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// orBase is the OR (orkut) stand-in of internal/dataset: a
// preferential-attachment backbone, an overlapping-clique pool, planted
// cliques and noise (n=15,000, ~208k edges, ~1.4M maximal cliques).
func orBase() *graph.Graph {
	spec, _ := standin.ByName("OR")
	return spec.Build()
}

// orWorkloadGraph is the graph of the OR workloads at seed: the OR graph
// relabelled by the seed. The structure stays fixed on purpose. Re-drawing
// the recipe per seed moves the maximal-clique count by ±15% (1.24M–1.80M
// over seeds 1–10), which would swamp the run-to-run bounds.
func orWorkloadGraph(seed int64) *graph.Graph {
	return relabel(orBase(), seed)
}
