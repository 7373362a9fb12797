package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/service"
)

// env is one benchmark run: its scratch directory, the mce binary, the
// run's tracer (nil when untraced) and the oracle's answers.
type env struct {
	dir  string // the run's scratch directory
	mce  string
	tr   *tracer
	want map[string]answer
}

// dataset is one graph a workload serves: its name on the servers, its
// .hbg snapshot and the graph itself (for the witness check of max_clique).
type dataset struct {
	name string
	path string
	g    *graph.Graph
}

// fixture is a workload's running system: the servers, the URL the client
// talks to (the coordinator of a cluster) and the datasets.
type fixture struct {
	nodes    []*node
	front    string
	datasets []dataset
	before   []map[string]float64 // traced run: /metrics of each node, see scrapeBefore
}

func (fx *fixture) close() {
	for _, n := range fx.nodes {
		n.close()
	}
	httpClient.CloseIdleConnections()
}

// opRecord is one measured operation.
type opRecord struct {
	op      opSpec
	lat     time.Duration
	err     error
	cliques int64         // delivered (streams, CLI output) or counted
	bytes   int64         // stream or CLI output bytes
	first   time.Duration // streams: time to the first clique
	submit  time.Duration // jobs: the POST round trip
	traced  bool          // spans were recorded for the op
	at      time.Duration // completion, from the start of the op loop
}

// opSpec is one entry of a workload's op sequence.
type opSpec struct {
	ds      int    // index into fixture.datasets
	typ     string // enumerate | count | max_clique | top_k | kclique_count
	algo    string // "" = hbbmc
	cli     bool   // run through the mce binary instead of the server
	workers int    // job or CLI worker goroutines
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	clients int
	cluster bool // a coordinator with two peers instead of one server
	// ops is the op sequence the clients replay, wrapping around.
	ops func(seed int64) []opSpec
}

var workloads = []workload{
	{
		name: "or-stream", clients: 1,
		ops: func(int64) []opSpec {
			return []opSpec{{typ: "enumerate", workers: 2}, {typ: "enumerate", cli: true, workers: 2}}
		},
	},
	{
		name: "or-count", clients: 1,
		ops: func(int64) []opSpec {
			return []opSpec{{typ: "count", workers: 2}, {typ: "count", cli: true, workers: 2}}
		},
	},
	{name: "mixed-small", clients: 2, ops: smallOps},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smallBudgetShare is the session budget of mixed-small, in percent of the
// bytes all its sessions take together.
const smallBudgetShare = 62

// Each mixed-small pairing of graph, job type and algorithm appears
// smallRounds times in the op list, smallCLI of them (one in twenty)
// through the mce binary.
const (
	smallRounds = 60
	smallCLI    = 3
)

// The k of top_k and kclique_count ops; the oracle answers for these.
const (
	topK     = 10
	kCliqueK = 4
)

var (
	smallAlgos = []string{"hbbmc", "bkref", "bkdegen"}
	smallTypes = []string{"enumerate", "count", "max_clique", "top_k", "kclique_count"}
)

// smallOps is the mixed-small op list at seed: every pairing of a graph, a
// job type and an algorithm, smallRounds times each, with smallCLI of each
// pairing's copies run through the mce binary instead of the server,
// shuffled by the seed. The seed changes the order but not the mix.
func smallOps(seed int64) []opSpec {
	var ops []opSpec
	for ds := 0; ds < 4; ds++ {
		for _, typ := range smallTypes {
			for _, algo := range smallAlgos {
				for r := 0; r < smallRounds; r++ {
					ops = append(ops, opSpec{ds: ds, typ: typ, algo: algo, cli: r < smallCLI, workers: 1})
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// startSystem brings the workload's servers up on fresh journals, registers
// the datasets and runs one warm-up count job. It is the span setup_s
// times.
func startSystem(e *env, w workload, ds []dataset, cfg service.Config, rep int) (*fixture, error) {
	fx := &fixture{datasets: ds}
	ok := false
	defer func() {
		if !ok {
			fx.close()
		}
	}()
	newNode := func(name string, cfg service.Config) (*node, error) {
		cfg.JournalDir = filepath.Join(e.dir, fmt.Sprintf("journal-%d-%s", rep, name))
		n, err := startNode(cfg)
		if err != nil {
			return nil, err
		}
		fx.nodes = append(fx.nodes, n)
		for _, d := range ds {
			if err := register(n.base, d.name, d.path); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	if w.cluster {
		var peers []string
		for p := 0; p < 2; p++ {
			pc := cfg
			pc.WorkerSlots = 1
			n, err := newNode(fmt.Sprintf("peer%d", p), pc)
			if err != nil {
				return nil, err
			}
			peers = append(peers, n.base)
		}
		cfg.Peers = peers
	}
	front, err := newNode("front", cfg)
	if err != nil {
		return nil, err
	}
	fx.front = front.base
	v, err := submit(fx.front, jobReq{Dataset: ds[0].name, Type: "count", Workers: 2})
	if err == nil {
		_, err = wait(fx.front, v)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	ok = true
	return fx, nil
}

// runOp runs one op against the fixture and checks its answer.
func runOp(e *env, fx *fixture, s opSpec, id int64, parent int) opRecord {
	d := fx.datasets[s.ds]
	want := e.want[d.name]
	if s.cli {
		return runCLI(e, d, s, want, id, parent)
	}
	rec := opRecord{op: s}
	// A coordinator fans enumerate and count jobs out to its peers and runs
	// the other types itself.
	layer := "service"
	if len(fx.nodes) > 1 && (s.typ == "enumerate" || s.typ == "count") {
		layer = "distrib"
	}
	req := jobReq{Dataset: d.name, Type: s.typ, Algorithm: s.algo, Workers: s.workers}
	switch s.typ {
	case "top_k":
		req.K = topK
	case "kclique_count":
		req.K = kCliqueK
	}
	start := time.Now()
	sp := e.tr.begin(layer+".submit", id, parent)
	v, err := submit(fx.front, req)
	e.tr.end(sp)
	rec.submit = time.Since(start)
	if err != nil {
		rec.err = err
		return rec
	}
	switch s.typ {
	case "enumerate", "top_k":
		sp = e.tr.begin(layer+".stream", id, parent)
		res, err := stream(fx.front, v.ID)
		e.tr.end(sp)
		rec.lat = time.Since(start)
		rec.cliques, rec.bytes, rec.first = res.d.N, res.bytes, res.first
		switch expect := pick(s.typ == "top_k", want.Top10, want.All); {
		case err != nil:
			rec.err = err
		case res.d != expect || res.tr.Cliques != expect.N:
			rec.err = fmt.Errorf("%s %s/%s: got %d cliques (digest %x), want %d (%x)",
				s.typ, d.name, s.algo, res.d.N, res.d.Sum, expect.N, expect.Sum)
		}
		return rec
	}
	sp = e.tr.begin(layer+".wait", id, parent)
	v, err = wait(fx.front, v)
	e.tr.end(sp)
	rec.lat = time.Since(start)
	if err != nil {
		rec.err = err
		return rec
	}
	st := v.Stats
	switch s.typ {
	case "count":
		rec.cliques = st.Cliques
		if st.Cliques != want.All.N {
			rec.err = fmt.Errorf("count %s/%s = %d, want %d", d.name, s.algo, st.Cliques, want.All.N)
		}
	case "max_clique":
		if len(v.MaxClique) != want.MaxSize || st.MaxCliqueSize != want.MaxSize || !d.g.IsClique(v.MaxClique) {
			rec.err = fmt.Errorf("max_clique %s/%s = %v (stats ω=%d), want size %d",
				d.name, s.algo, v.MaxClique, st.MaxCliqueSize, want.MaxSize)
		}
	case "kclique_count":
		if st.KCliques != want.KCliques {
			rec.err = fmt.Errorf("kclique_count %s/%s = %d, want %d", d.name, s.algo, st.KCliques, want.KCliques)
		}
	}
	return rec
}

func pick[T any](c bool, a, b T) T {
	if c {
		return a
	}
	return b
}

// cliArgs maps an op to the mce flags of the same query.
func cliArgs(d dataset, s opSpec) []string {
	args := []string{"-in", d.path, "-workers", strconv.Itoa(s.workers), "-json"}
	if s.algo != "" {
		args = append(args, "-algo", s.algo)
	}
	switch s.typ {
	case "count":
		args = append(args, "-quiet")
	case "max_clique":
		args = append(args, "-maxclique")
	case "top_k":
		args = append(args, "-topk", strconv.Itoa(topK))
	case "kclique_count":
		args = append(args, "-kcliques", strconv.Itoa(kCliqueK))
	}
	return args
}

// runCLI runs the mce binary with its stdout piped back to the benchmark,
// which digests the output as it arrives.
func runCLI(e *env, d dataset, s opSpec, want answer, id int64, parent int) opRecord {
	rec := opRecord{op: s}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.mce, cliArgs(d, s)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		rec.err = err
		return rec
	}
	sp := e.tr.begin("mce.run", id, parent)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		e.tr.end(sp)
		rec.err = err
		return rec
	}
	// Clique lines fold into the digest as they arrive; the single-line
	// answers (a witness clique, a k-clique count) are kept.
	var dg digest
	var lines []string
	c := make([]int32, 0, 64)
	r := bufio.NewReaderSize(out, 1<<16)
	for {
		line, err := readLine(r)
		rec.bytes += int64(len(line))
		switch {
		case len(line) == 0:
		case s.typ == "enumerate" || s.typ == "top_k":
			c = parseInts(line, c[:0])
			dg.add(c)
		default:
			lines = append(lines, string(bytes.TrimSpace(line)))
		}
		if err != nil {
			break
		}
	}
	err = cmd.Wait()
	rec.lat = time.Since(start)
	e.tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("mce %v: %v: %s", cmd.Args[1:], err, bytes.TrimSpace(stderr.Bytes()))
		return rec
	}
	var summary struct{ Stats hbbmc.Stats }
	if err := json.Unmarshal(lastLine(stderr.Bytes()), &summary); err != nil {
		rec.err = fmt.Errorf("mce summary: %v", err)
		return rec
	}
	rec.cliques = dg.N
	switch s.typ {
	case "enumerate", "top_k":
		if expect := pick(s.typ == "top_k", want.Top10, want.All); dg != expect {
			rec.err = fmt.Errorf("mce %s %s: got %d cliques (digest %x), want %d (%x)", s.typ, d.name, dg.N, dg.Sum, expect.N, expect.Sum)
		}
	case "count":
		rec.cliques = summary.Stats.Cliques
		if summary.Stats.Cliques != want.All.N {
			rec.err = fmt.Errorf("mce count %s = %d, want %d", d.name, summary.Stats.Cliques, want.All.N)
		}
	case "max_clique":
		var w []int32
		if len(lines) == 1 {
			w = parseInts([]byte(lines[0]), nil)
		}
		if len(w) != want.MaxSize || !d.g.IsClique(w) {
			rec.err = fmt.Errorf("mce max_clique %s = %q, want size %d", d.name, lines, want.MaxSize)
		}
	case "kclique_count":
		var n int64 = -1
		if len(lines) == 1 {
			n, _ = strconv.ParseInt(lines[0], 10, 64)
		}
		if n != want.KCliques {
			rec.err = fmt.Errorf("mce kclique_count %s = %q, want %d", d.name, lines, want.KCliques)
		}
	}
	return rec
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// traceBlock is the length of the blocks of ops a traced run alternates
// between running untraced and traced. Alternating lets a drift of the
// host's speed reach both kinds of op alike, so the tracing overhead is the
// difference between them.
const traceBlock = 64

// runLoop drives the workload's closed loops for d: each client starts its
// next op only once its previous one has completed. The clients take ops in
// turn from one shared sequence; a short sequence runs to the end of its
// round past d. In a traced run, ops alternate between blocks run untraced
// and blocks run traced; a block is the whole op sequence when that is
// shorter than traceBlock.
func runLoop(e *env, w workload, fx *fixture, ops []opSpec, d time.Duration) ([]opRecord, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []opRecord
		wg   sync.WaitGroup
	)
	untraced := *e
	untraced.tr = nil
	block := int64(min(len(ops), traceBlock))
	// A short op sequence runs in whole rounds, so that every run's ops
	// come in the sequence's proportions whatever d is.
	whole := len(ops) <= traceBlock
	start := time.Now()
	more := func() bool {
		return time.Since(start) < d || whole && next.Load()%int64(len(ops)) != 0
	}
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				id := next.Add(1) - 1
				oe := e
				if id/block%2 == 0 {
					oe = &untraced
				}
				root := oe.tr.begin("bench.op", id, -1)
				rec := runOp(oe, fx, ops[id%int64(len(ops))], id, root)
				oe.tr.end(root)
				rec.traced = oe.tr != nil
				mu.Lock()
				rec.at = time.Since(start)
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// sortedMS returns the durations in milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of an ascending sample (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank percentile of an ascending sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(float64(len(xs))*p/100+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
