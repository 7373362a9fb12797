// Command perfbench is the repository benchmark: it drives named workloads
// through the program's public entry points (the mced job API served by an
// in-process service.Open, an in-process coordinator cluster, and the built
// cmd/mce binary), checks every answer against an oracle computed by
// internal/verify, and prints its metrics by name and unit. The last line
// of its output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around every call into a layer on alternate blocks of ops, scrapes the servers' /metrics and reports per-layer metrics
// instead.
//
// Run it through run.sh, which builds it and mce from the checkout:
//
//	bash perfbench/run.sh --workload or-stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/service"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets the system up at least minSetupReps times, and more (up to
// maxSetupReps) while the set-ups have taken less than minSetupTime in
// total; setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 25
	minSetupTime = time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: or-stream, or-count or mixed-small")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 20, "how long the op loop runs")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dir     = flag.String("dir", ".bench_build/perfbench", "work directory (oracle cache, run scratch, traces)")
		mce     = flag.String("mce", "", "path of the built mce binary")
		inputsO = flag.String("make-inputs", "", "internal: make the workload's inputs at the seed in this directory and exit")
	)
	flag.Parse()
	if *inputsO != "" {
		if err := makeInputs(*inputsO, *name, *seed, *dir); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *mce == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir, *mce); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(w workload, seed int64, seconds time.Duration, traced bool, dir, mce string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	inDir, in, err := loadInputs(dir, w.name, seed)
	if err != nil {
		return err
	}
	var ds []dataset
	for _, name := range in.Graphs {
		path := filepath.Join(inDir, name+".hbg")
		g, err := graph.LoadBinaryFile(path)
		if err != nil {
			return err
		}
		ds = append(ds, dataset{name: name, path: path, g: g})
	}
	cfg := service.Config{SessionBudget: in.Budget}
	runDir, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return err
	}
	defer removeAll(runDir)
	e := &env{dir: runDir, mce: mce, want: in.Answers}
	if traced {
		e.tr = newTracer()
	}

	// The traced run reports no set-up time and sets up once.
	var setup []float64
	var fx *fixture
	for rep := 0; rep == 0 || !traced && moreSetups(setup); rep++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		fx, err = startSystem(e, w, ds, cfg, rep)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer fx.close()
	sort.Float64s(setup)

	if traced {
		if err := scrapeBefore(fx); err != nil {
			return err
		}
	}
	recs, window := runLoop(e, w, fx, w.ops(seed), seconds)
	res := result{Metrics: map[string]metric{}}
	if traced {
		recs, err = layerMetrics(e, fx, recs, res.Metrics)
		if err != nil {
			return err
		}
		if err := e.tr.write(filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))); err != nil {
			return err
		}
	} else {
		endToEnd(recs, window, setup, res.Metrics)
	}
	res.Attempted = len(recs)
	for _, r := range recs {
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", r.op.typ, r.err)
		}
	}
	res.Correct = res.Failed == 0
	report(w, seed, res)
	return nil
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// moreSetups reports whether an untraced run sets up once more, given the
// set-up times so far.
func moreSetups(done []float64) bool {
	var spent float64
	for _, s := range done {
		spent += s
	}
	return len(done) < minSetupReps || len(done) < maxSetupReps && spent < minSetupTime.Seconds()
}

// endToEnd fills the user-visible metrics of an untraced run.
func endToEnd(recs []opRecord, window time.Duration, setup []float64, m map[string]metric) {
	var clis []time.Duration
	for _, r := range recs {
		if r.err == nil && r.op.cli {
			clis = append(clis, r.lat)
		}
	}
	parts := split(recs, window)
	stat := func(f func(part) float64) float64 {
		xs := make([]float64, len(parts))
		for i, p := range parts {
			xs[i] = f(p)
		}
		sort.Float64s(xs)
		return median(xs)
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["job_p50_ms"] = metric{stat(func(p part) float64 { return median(p.jobMS) }), "ms"}
	m["job_p99_ms"] = metric{stat(func(p part) float64 { return percentile(p.jobMS, 99) }), "ms"}
	m["jobs_per_s"] = metric{stat(func(p part) float64 { return float64(p.done) / p.span.Seconds() }), "1/s"}
	m["cliques_per_s"] = metric{stat(part.cliqueRate), "1/s"}
	m["cli_p50_s"] = metric{median(sortedMS(clis)) / 1e3, "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// A run of at least 2×minPartJobs server jobs is cut into up to maxParts
// consecutive parts of equal op count, in completion order, and each rate
// and latency metric is the median of the parts' values; a shorter run is
// one part. The host's load comes in bursts of seconds to tens of seconds,
// so a burst then moves the figure of one part or a few, not the median.
// A part of minPartJobs jobs has about ten beyond its p99.
const (
	maxParts    = 9
	minPartJobs = 1000
)

// part is one stretch of a run's ops.
type part struct {
	span       time.Duration // from the previous part's last completion to this one's
	done       int           // ops completed without error
	jobMS      []float64     // server job latencies, ascending
	cliques    map[string]int64
	cliqueTime map[string]time.Duration
}

// split cuts the run's ops, in completion order, into parts.
func split(recs []opRecord, window time.Duration) []part {
	var jobs int
	for _, r := range recs {
		if r.err == nil && !r.op.cli {
			jobs++
		}
	}
	k := max(1, min(maxParts, jobs/minPartJobs))
	out := make([]part, k)
	var prev time.Duration
	for i := range out {
		p := &out[i]
		p.cliques, p.cliqueTime = map[string]int64{}, map[string]time.Duration{}
		ops := recs[len(recs)*i/k : len(recs)*(i+1)/k]
		end := window
		if i < k-1 {
			end = ops[len(ops)-1].at
		}
		p.span, prev = end-prev, end
		var lats []time.Duration
		for _, r := range ops {
			if r.err != nil {
				continue
			}
			p.done++
			if r.op.cli {
				continue
			}
			lats = append(lats, r.lat)
			p.cliques[r.op.typ] += r.cliques
			p.cliqueTime[r.op.typ] += r.lat
		}
		p.jobMS = sortedMS(lats)
	}
	return out
}

// cliqueRate is the cliques per second of a part's enumerate jobs, or of
// its count jobs on a workload that streams none.
func (p part) cliqueRate() float64 {
	typ := "enumerate"
	if p.cliques[typ] == 0 {
		typ = "count"
	}
	return ratio(float64(p.cliques[typ]), p.cliqueTime[typ].Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is this process's peak resident set size. The oracle runs in a
// child process and does not count.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// report prints every metric by name with its unit, the failure ratio, and
// the JSON result as the last line.
func report(w workload, seed int64, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d ops, %d failed, fail_ratio %.4f\n",
		w.name, seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, k := range names {
		fmt.Printf("  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}
