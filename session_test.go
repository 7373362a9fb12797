package hbbmc_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
)

// sessionTestGraph is shared by the session tests: big enough that a
// cancelled run is visibly partial (17k+ maximal cliques over 20k top-level
// branches), small enough to enumerate fully in milliseconds.
func sessionTestGraph() *hbbmc.Graph { return hbbmc.GenerateER(2000, 20000, 1) }

// withTestProcs raises GOMAXPROCS so the parallel driver actually runs
// multi-worker on single-core CI machines (resolveWorkers clamps to
// GOMAXPROCS).
func withTestProcs(t *testing.T, workers int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < workers {
		runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// orderedAlgorithms are the frameworks whose top level is an ordered split
// — every algorithm that supports both drivers and mid-run cancellation at
// top-branch granularity.
var orderedAlgorithms = []hbbmc.Algorithm{
	hbbmc.BKRef, hbbmc.BKDegen, hbbmc.BKDegree, hbbmc.BKRcd, hbbmc.BKFac,
	hbbmc.EBBMC, hbbmc.HBBMC,
}

func TestSessionReuseMatchesOneShot(t *testing.T) {
	g := sessionTestGraph()
	want, _, err := countOnce(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sess.PrepTime() <= 0 {
		t.Error("PrepTime should record the cached preprocessing cost")
	}
	for q := 0; q < 3; q++ {
		n, stats, err := sess.Count(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if n != want {
			t.Fatalf("query %d counted %d cliques, a fresh session found %d", q, n, want)
		}
		if stats.OrderingTime != 0 {
			t.Fatalf("query %d spent %v ordering; a session query must skip preprocessing", q, stats.OrderingTime)
		}
		if stats.Tau == 0 {
			t.Fatalf("query %d lost the cached τ", q)
		}
	}
}

func TestSessionCollectAndIterator(t *testing.T) {
	g := hbbmc.GenerateER(300, 2400, 3)
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	all, stats, err := sess.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(all)) != stats.Cliques {
		t.Fatalf("Collect returned %d cliques, Stats counted %d", len(all), stats.Cliques)
	}
	var iterated int64
	for c := range sess.Cliques(context.Background()) {
		if len(c) == 0 {
			t.Fatal("iterator yielded an empty clique")
		}
		iterated++
	}
	if iterated != stats.Cliques {
		t.Fatalf("iterator yielded %d cliques, want %d", iterated, stats.Cliques)
	}
	// Breaking out of the range loop must stop the run without yielding more.
	var taken int
	for range sess.Cliques(context.Background()) {
		taken++
		if taken == 3 {
			break
		}
	}
	if taken != 3 {
		t.Fatalf("broke after 3 cliques but saw %d", taken)
	}
}

func TestSessionCancelMidRun(t *testing.T) {
	withTestProcs(t, 4)
	g := sessionTestGraph()
	for _, algo := range orderedAlgorithms {
		for _, workers := range []int{1, 4} {
			t.Run(algo.String()+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				opts := hbbmc.Options{Algorithm: algo, ET: 3, GR: true, Workers: workers, EmitBatchSize: 1}
				sess, err := hbbmc.NewSession(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				total, _, err := sess.Count(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				before := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var seen atomic.Int64
				stats, err := sess.Enumerate(ctx, func(c []int32) bool {
					if seen.Add(1) == 25 {
						cancel()
					}
					return true
				})
				if err == nil || !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v, want context.Canceled", err)
				}
				if stats == nil {
					t.Fatal("cancelled run must return partial Stats")
				}
				if stats.Cliques == 0 || stats.Cliques >= total {
					t.Fatalf("partial run reported %d cliques (total %d); cancellation had no effect", stats.Cliques, total)
				}
				waitForGoroutines(t, before)
			})
		}
	}
}

func TestSessionDeadlineExceeded(t *testing.T) {
	withTestProcs(t, 4)
	g := sessionTestGraph()
	opts := hbbmc.DefaultOptions()
	opts.Workers = 4
	sess, err := hbbmc.NewSession(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	before := runtime.NumGoroutine()
	n, stats, err := sess.Count(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
	if n != 0 || stats.Cliques != 0 {
		t.Fatalf("expired-deadline run still counted %d cliques", n)
	}
	waitForGoroutines(t, before)
}

func TestMaxCliquesEquivalenceAcrossWorkers(t *testing.T) {
	withTestProcs(t, 8)
	g := sessionTestGraph()
	total, _, err := countOnce(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{1, 7, 1000, total, total + 5} {
		for _, workers := range []int{1, 2, 8} {
			opts := hbbmc.DefaultOptions()
			opts.Workers = workers
			opts.MaxCliques = limit
			sess, err := hbbmc.NewSession(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Counting path (no visitor).
			n, _, err := sess.Count(context.Background())
			wantN, wantStop := limit, true
			if limit >= total {
				wantN, wantStop = total, false
			}
			if n != wantN {
				t.Fatalf("limit=%d workers=%d: counted %d cliques, want %d", limit, workers, n, wantN)
			}
			if wantStop != errors.Is(err, hbbmc.ErrStopped) {
				t.Fatalf("limit=%d workers=%d: err=%v, want ErrStopped=%v", limit, workers, err, wantStop)
			}
			// Streaming path: exactly the same number must be delivered.
			var delivered atomic.Int64
			stats, err := sess.Enumerate(context.Background(), func([]int32) bool {
				delivered.Add(1)
				return true
			})
			if delivered.Load() != wantN || stats.Cliques != wantN {
				t.Fatalf("limit=%d workers=%d: delivered %d cliques (stats %d), want %d",
					limit, workers, delivered.Load(), stats.Cliques, wantN)
			}
			if wantStop != errors.Is(err, hbbmc.ErrStopped) {
				t.Fatalf("limit=%d workers=%d (streaming): err=%v, want ErrStopped=%v", limit, workers, err, wantStop)
			}
		}
	}
}

func TestVisitorStop(t *testing.T) {
	withTestProcs(t, 4)
	g := sessionTestGraph()
	for _, workers := range []int{1, 4} {
		opts := hbbmc.DefaultOptions()
		opts.Workers = workers
		opts.EmitBatchSize = 1
		sess, err := hbbmc.NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		var afterStop atomic.Int64
		var stopped atomic.Bool
		stats, err := sess.Enumerate(context.Background(), func([]int32) bool {
			if stopped.Load() {
				afterStop.Add(1)
			}
			if calls.Add(1) >= 10 {
				stopped.Store(true)
				return false
			}
			return true
		})
		if !errors.Is(err, hbbmc.ErrStopped) {
			t.Fatalf("workers=%d: visitor stop returned %v, want ErrStopped", workers, err)
		}
		if afterStop.Load() != 0 {
			t.Fatalf("workers=%d: %d visitor calls after it returned false", workers, afterStop.Load())
		}
		if calls.Load() != 10 {
			t.Fatalf("workers=%d: visitor called %d times, want 10", workers, calls.Load())
		}
		if stats.Cliques != calls.Load() {
			t.Fatalf("workers=%d: stats reported %d cliques but %d were delivered", workers, stats.Cliques, calls.Load())
		}
	}
}

// TestVisitorStopDuringETBurst pins the "no Visitor calls after false"
// contract on the hardest path: Moon–Moser graphs close branches through
// the early-termination construction, which emits many cliques from one
// recursion frame where no entry-level stop check can intervene.
func TestVisitorStopDuringETBurst(t *testing.T) {
	g := hbbmc.GenerateMoonMoser(4) // 81 maximal cliques, ET-heavy
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	stats, err := sess.Enumerate(context.Background(), func([]int32) bool {
		calls++
		return false // stop immediately
	})
	if !errors.Is(err, hbbmc.ErrStopped) {
		t.Fatalf("visitor stop returned %v, want ErrStopped", err)
	}
	if calls != 1 {
		t.Fatalf("visitor called %d times after returning false on the first", calls)
	}
	if stats.Cliques != 1 {
		t.Fatalf("stats counted %d cliques after the stop, want 1", stats.Cliques)
	}
	// Breaking out of the range iterator rides the same path and must not
	// trip the range-func "continued iteration after false" panic.
	taken := 0
	for range sess.Cliques(context.Background()) {
		taken++
		break
	}
	if taken != 1 {
		t.Fatalf("iterator yielded %d cliques after break, want 1", taken)
	}
}

func TestSessionConcurrentQueries(t *testing.T) {
	g := sessionTestGraph()
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sess.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	counts := make([]int64, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i], _, errs[i] = sess.Count(context.Background())
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d: %v", i, errs[i])
		}
		if counts[i] != want {
			t.Fatalf("concurrent query %d counted %d, want %d", i, counts[i], want)
		}
	}
}

// waitForGoroutines asserts the goroutine count returns to the pre-run
// baseline (with slack for runtime housekeeping), i.e. no worker leaked.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before the run", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkSessionReuse contrasts a cold Count (preprocessing every call)
// with repeated queries on a cached Session — the acceptance benchmark for
// the session API. The warm path must skip reduction/ordering entirely
// (Stats.OrderingTime == 0) and run measurably faster.
func BenchmarkSessionReuse(b *testing.B) {
	g := hbbmc.GenerateER(5000, 100000, 7)
	opts := hbbmc.DefaultOptions()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := countOnce(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sess, err := hbbmc.NewSession(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, stats, err := sess.Count(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if stats.OrderingTime != 0 {
				b.Fatalf("warm query spent %v ordering", stats.OrderingTime)
			}
		}
	})
}
