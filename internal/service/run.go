package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/distrib"
	"github.com/graphmining/hbbmc/internal/obs"
	"github.com/graphmining/hbbmc/internal/service/journal"
)

// jobRequest is the POST /v1/jobs body. Omitted algorithm fields default to
// the paper's HBBMC++ configuration (hbbmc.DefaultOptions); omitted run
// fields default to one worker, no clique budget and no deadline.
type jobRequest struct {
	Dataset string `json:"dataset"`
	// Type selects the query the job runs:
	//
	//	enumerate      stream every maximal clique over /cliques
	//	count          count maximal cliques (statistics only)
	//	max_clique     exact maximum clique (witness in the job view)
	//	top_k          the k largest maximal cliques, streamed over /cliques
	//	kclique_count  the number of k-vertex cliques (Stats.KCliques)
	//
	// "" defaults to Mode (the pre-workload-query alias), then "enumerate".
	Type string `json:"type"`
	// Mode is the legacy name of Type ("enumerate" or "count"). Setting both
	// to different values is an error.
	Mode string `json:"mode"`
	// K is the k of a top_k or kclique_count job (required, >= 1); it is
	// rejected on the other types.
	K int `json:"k"`

	// Algorithm-relevant options; together with the dataset they select the
	// cached session.
	Algorithm   string `json:"algorithm"`    // "" = hbbmc
	ET          *int   `json:"et"`           // nil = 3
	GR          *bool  `json:"gr"`           // nil = true
	SwitchDepth int    `json:"switch_depth"` // 0 = 1
	EdgeOrder   string `json:"edge_order"`   // "" = truss
	Inner       string `json:"inner"`        // "" = pivot

	// Per-request run knobs; they never fragment the session cache.
	Workers    int    `json:"workers"`     // ≤0 = 1, clamped to the slot capacity
	MaxCliques int64  `json:"max_cliques"` // 0 = unlimited
	Timeout    string `json:"timeout"`     // Go duration, e.g. "30s"; "" = none
	Buffer     int    `json:"buffer"`      // stream buffer in cliques; 0 = server default
	// PhaseTimers opts this job into per-phase timers (universe/pivot/et/
	// emit), reported in Stats and fed to the mced_phase_seconds histograms;
	// Config.PhaseTimers turns them on server-wide instead.
	PhaseTimers bool `json:"phase_timers,omitempty"`

	// Distributed-shard fields (internal/distrib.Descriptor). BranchRange
	// restricts the run to branch schedule positions [lo, hi); [0, 0] is
	// only legal on a session whose branch space is empty (the residue-only
	// shard). GraphCRC and Ordering, when present, must match this node's
	// session fingerprints or the request is rejected with 409 — the hard
	// incompatibility signal a coordinator never retries. A request carrying
	// BranchRange always executes locally, even on a node that is itself a
	// coordinator.
	BranchRange *[2]int `json:"branch_range,omitempty"`
	GraphCRC    string  `json:"graph_crc,omitempty"`
	Ordering    string  `json:"ordering,omitempty"`
}

// streamBufferFor clamps a client-requested stream buffer. The buffer is
// eagerly allocated, so one request must not be able to force a giant
// allocation.
func (s *Server) streamBufferFor(requested int) int {
	const maxStreamBuffer = 1 << 16
	buffer := requested
	if buffer <= 0 {
		buffer = s.cfg.StreamBuffer
	}
	if buffer > maxStreamBuffer {
		buffer = maxStreamBuffer
	}
	return buffer
}

// options maps the request to the session-defining Options. The per-run
// knobs are deliberately excluded — MaxCliques and Workers travel through
// QueryOptions so that requests with different limits share one session.
func (req *jobRequest) options() (hbbmc.Options, error) {
	opts := hbbmc.DefaultOptions()
	if req.Algorithm != "" {
		a, err := hbbmc.ParseAlgorithm(req.Algorithm)
		if err != nil {
			return opts, err
		}
		opts.Algorithm = a
	}
	if req.ET != nil {
		opts.ET = *req.ET
	}
	if req.GR != nil {
		opts.GR = *req.GR
	}
	opts.SwitchDepth = req.SwitchDepth
	if req.EdgeOrder != "" {
		eo, err := hbbmc.ParseEdgeOrder(req.EdgeOrder)
		if err != nil {
			return opts, err
		}
		opts.EdgeOrder = eo
	}
	if req.Inner != "" {
		in, err := hbbmc.ParseInnerAlgorithm(req.Inner)
		if err != nil {
			return opts, err
		}
		opts.Inner = in
	}
	return opts, nil
}

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if s.recovering.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is replaying its journal")
		return
	}
	var req jobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	typ := req.Type
	if typ == "" {
		typ = req.Mode
	}
	if typ == "" {
		typ = "enumerate"
	}
	if req.Type != "" && req.Mode != "" && req.Type != req.Mode {
		writeError(w, http.StatusBadRequest, "type %q and mode %q disagree", req.Type, req.Mode)
		return
	}
	switch typ {
	case "enumerate", "count", "max_clique", "top_k", "kclique_count":
	default:
		writeError(w, http.StatusBadRequest,
			"invalid type %q (enumerate, count, max_clique, top_k or kclique_count)", typ)
		return
	}
	switch typ {
	case "top_k", "kclique_count":
		if req.K < 1 {
			writeError(w, http.StatusBadRequest, "%s jobs need k >= 1, got %d", typ, req.K)
			return
		}
	default:
		if req.K != 0 {
			writeError(w, http.StatusBadRequest, "k applies to top_k and kclique_count jobs only")
			return
		}
	}
	if req.BranchRange != nil && typ != "enumerate" && typ != "count" {
		writeError(w, http.StatusBadRequest, "branch_range applies to enumerate and count jobs only")
		return
	}
	if req.MaxCliques < 0 {
		writeError(w, http.StatusBadRequest, "negative max_cliques %d", req.MaxCliques)
		return
	}
	var timeout time.Duration
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "invalid timeout %q", req.Timeout)
			return
		}
		timeout = d
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The trace timeline starts here. A shard dispatch from a coordinator
	// carries a traceparent header; adopting its trace ID is what nests this
	// node's spans under the coordinator's job in the merged timeline.
	tr := obs.NewTrace()
	if h := r.Header.Get(obs.TraceparentHeader); h != "" {
		if id, ok := obs.ParseTraceparent(h); ok {
			tr = obs.NewTraceWithID(id, true)
		}
	}

	// Build (or fetch) the warm session first: preprocessing is not guarded
	// by worker slots — it is the cost the cache amortises away, and a miss
	// must not hold slots hostage while it runs.
	sessStart := time.Now()
	sess, cached, err := s.reg.Session(req.Dataset, opts)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := s.reg.Dataset(req.Dataset); !ok {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	tr.Record("session_acquire", sessStart, time.Since(sessStart))

	// A branch_range marks the request as a distributed shard: verify that
	// this node's graph, options and ordering agree with the coordinator's
	// fingerprints before narrowing the query to the interval. Disagreement
	// is a 409 — the descriptor simply is not executable here, no retry can
	// fix it.
	var branchLo, branchHi int
	if req.BranchRange != nil {
		lo, hi := req.BranchRange[0], req.BranchRange[1]
		if lo < 0 || hi < lo {
			writeError(w, http.StatusBadRequest, "invalid branch_range [%d,%d)", lo, hi)
			return
		}
		// Fingerprints first: when the graphs differ the branch counts
		// usually differ too, and "fingerprint mismatch" is the actionable
		// diagnosis, not the range arithmetic it breaks downstream.
		if req.GraphCRC != "" {
			if fp := distrib.FormatCRC(sess.GraphFingerprint()); fp != req.GraphCRC {
				writeError(w, http.StatusConflict, "dataset fingerprint mismatch: descriptor %s, this node %s", req.GraphCRC, fp)
				return
			}
		}
		if req.Ordering != "" {
			if fp := distrib.FormatCRC(sess.OrderingFingerprint()); fp != req.Ordering {
				writeError(w, http.StatusConflict, "ordering fingerprint mismatch: descriptor %s, this node %s", req.Ordering, fp)
				return
			}
		}
		branches := sess.NumTopBranches()
		switch {
		case lo == 0 && hi == 0 && branches > 0:
			writeError(w, http.StatusBadRequest, "empty branch_range on a session with %d top-level branches", branches)
			return
		case hi > branches:
			writeError(w, http.StatusConflict, "branch_range [%d,%d) exceeds this node's %d top-level branches", lo, hi, branches)
			return
		}
		branchLo, branchHi = lo, hi
	}

	buffer := s.streamBufferFor(req.Buffer)

	// Coordinator mode: a plain enumerate/count job on a node with peers is
	// not executed locally — it is split into branch-interval shards and
	// fanned out to the peers, the job here becoming the merge point of
	// their streams. The workload queries (max_clique, top_k, kclique_count)
	// have no branch-range decomposition protocol yet and run locally on the
	// coordinator instead.
	if len(s.cfg.Peers) > 0 && req.BranchRange == nil && (typ == "enumerate" || typ == "count") {
		req.Mode = typ
		s.startCoordinatedJob(w, &req, sess, cached, timeout, buffer, tr)
		return
	}

	// Clamp to what the job can actually use: the core driver never runs
	// more than GOMAXPROCS goroutines, so holding more slots than that
	// would starve other jobs off an idle machine.
	workers := req.Workers
	if workers <= 0 {
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > s.slots.Capacity() {
		workers = s.slots.Capacity()
	}
	q := hbbmc.QueryOptions{
		Workers:     workers,
		MaxCliques:  req.MaxCliques,
		BranchLo:    branchLo,
		BranchHi:    branchHi,
		PhaseTimers: req.PhaseTimers || s.cfg.PhaseTimers,
	}

	j := s.jobs.create(req.Dataset, typ, req.K, sess.Options(), q, workers, buffer, tr)
	s.log.Info("job created",
		slog.String("job", j.ID), slog.String("trace", tr.ID()),
		slog.String("dataset", req.Dataset), slog.String("type", typ),
		slog.Int("workers", workers), slog.Bool("session_cached", cached))
	j.mu.Lock()
	j.sessionCached = cached
	j.prepTime = sess.PrepTime()
	// Shard jobs (explicit branch_range, run on behalf of a remote
	// coordinator) are not journaled: the coordinator re-dispatches them
	// itself, and journaling them here would resume work nobody owns.
	j.journaled = s.jnl != nil && req.BranchRange == nil
	journaled := j.journaled
	j.mu.Unlock()
	if journaled {
		// The submission is durable before admission: a crash from here on
		// replays the job as queued (or further along) instead of losing it.
		jr := req
		jr.Type, jr.Mode = typ, ""
		if body, err := json.Marshal(&jr); err == nil {
			_ = s.jnl.AppendSubmit(j.ID, body)
		}
	}

	// Admission: hold the request while slots are busy, bounded by the
	// configured queue wait; saturation is a 429, never an oversubscribed
	// run. A DELETE landing while the job is queued here aborts the wait
	// through j.cancelled; a client disconnect aborts it through
	// r.Context(). Neither counts as saturation.
	admCtx := r.Context()
	var admCancel context.CancelFunc
	if s.cfg.QueueWait > 0 {
		admCtx, admCancel = context.WithTimeout(admCtx, s.cfg.QueueWait)
	} else {
		admCtx, admCancel = context.WithCancel(admCtx)
		admCancel() // no waiting: an immediate grant or nothing
	}
	defer admCancel()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-j.cancelled:
			admCancel()
		case <-watchDone:
		}
	}()
	qStart := time.Now()
	err = s.slots.Acquire(admCtx, workers)
	if err == nil {
		wait := time.Since(qStart)
		j.mu.Lock()
		j.queueWait = wait
		j.mu.Unlock()
		j.trace.Record("queued", qStart, wait)
		s.obs.queueWait.ObserveDuration(wait)
	}
	if err == nil && j.cancelReason.Load() != nil {
		// Cancelled in the instant between the grant and here: give the
		// slots straight back and take the stopped path below.
		s.slots.Release(workers)
		err = ErrSaturated
	}
	if err != nil {
		switch {
		case j.cancelReason.Load() != nil:
			// Cancelled while queued: the job never runs.
			s.jobs.markStopped(j, *j.cancelReason.Load())
			if j.cliques != nil {
				close(j.cliques)
			}
			writeJSON(w, http.StatusOK, j.View())
		case r.Context().Err() != nil:
			// The client gave up mid-wait; don't let its impatience read
			// as saturation in the metrics.
			s.jobs.markFailed(j, "client disconnected during admission")
			if j.cliques != nil {
				close(j.cliques)
			}
		default:
			s.m.admissionRejected.Add(1)
			s.jobs.markFailed(j, fmt.Sprintf("admission: %d worker slots saturated (capacity %d)", workers, s.slots.Capacity()))
			if j.cliques != nil {
				close(j.cliques)
			}
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.QueueWait/time.Second)+1))
			writeJSON(w, http.StatusTooManyRequests, j.View())
		}
		return
	}

	runCtx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, timeout)
	} else {
		runCtx, cancel = context.WithCancel(runCtx)
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	// A DELETE that slipped in after the post-Acquire check found j.cancel
	// still nil and was a no-op; honour it now that the context exists —
	// the run then stops at its first cancellation poll.
	if j.cancelReason.Load() != nil {
		cancel()
	}
	s.jobs.markRunning(j)
	go s.runJob(runCtx, cancel, j, sess)
	writeJSON(w, http.StatusAccepted, j.View())
}

// enumerateHook builds the BranchDone hook of a journaled enumerate job.
// It runs on the core's single releasing goroutine, strictly after the
// cliques of the unit it reports reached the visitor (ordered emission), so
// it can append a durable checkpoint AND push the matching {"ckpt":W}
// marker into the same stream with nothing out of order on either side.
// base seeds the cumulative totals when the run resumes a durable prefix.
func (s *Server) enumerateHook(j *Job, chunks *chunker, base journal.Ckpt) func(lo, hi int, cliques int64, max int) {
	cum := base.Cliques
	maxSize := base.MaxSize
	last := time.Now()
	prevW := j.Query.BranchLo
	interval := s.cfg.CheckpointInterval
	return func(lo, hi int, cliques int64, max int) {
		cum += cliques
		if max > maxSize {
			maxSize = max
		}
		// W=0 is not a valid resume point: resuming with BranchLo=0 would
		// re-emit the preprocessing residue the W=0 call reported.
		if hi < 1 || time.Since(last) < interval {
			return
		}
		// The cliques of [0, hi) may still sit in the open chunk: send it
		// first, so the marker follows every one of them in the stream.
		if !chunks.flush() {
			return
		}
		if s.jnl.AppendCkpt(j.ID, hi, cum, maxSize) != nil {
			return // wedged or failing journal: keep enumerating, stop claiming
		}
		// The span covers the branch interval this checkpoint made durable,
		// timed from the previous durable point.
		j.trace.RecordRange("checkpoint", prevW, hi, last, time.Since(last))
		prevW = hi
		last = time.Now()
		chunks.send(streamItem{ckpt: hi})
	}
}

// countHook builds the BranchDone hook of a journaled count job. Count runs
// are unordered — hook calls arrive out of schedule order from the workers
// (serialized, but interleaved) — so completed intervals are merged into a
// contiguous-prefix watermark and only the watermark is checkpointed.
func (s *Server) countHook(j *Job, base journal.Ckpt, lo int) func(lo, hi int, cliques int64, max int) {
	type interval struct {
		hi      int
		cliques int64
	}
	pending := make(map[int]interval)
	w := lo // contiguous watermark: residue + [lo, w) are accounted
	prevW := lo
	cum := base.Cliques
	maxSize := base.MaxSize
	last := time.Now()
	intervalMin := s.cfg.CheckpointInterval
	return func(clo, chi int, cliques int64, max int) {
		if max > maxSize {
			maxSize = max
		}
		if clo == 0 && chi == 0 {
			cum += cliques // the residue call; always first when lo == 0
		} else {
			pending[clo] = interval{hi: chi, cliques: cliques}
		}
		for {
			iv, ok := pending[w]
			if !ok {
				break
			}
			delete(pending, w)
			cum += iv.cliques
			w = iv.hi
		}
		if w < 1 || time.Since(last) < intervalMin {
			return
		}
		if s.jnl.AppendCkpt(j.ID, w, cum, maxSize) == nil {
			j.trace.RecordRange("checkpoint", prevW, w, last, time.Since(last))
			prevW = w
			last = time.Now()
		}
	}
}

// runJob executes one admitted job — dispatching on its type — and always
// releases its worker slots. Journaled jobs additionally record the
// running fingerprints and durable branch-progress checkpoints.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *Job, sess *hbbmc.Session) {
	defer cancel()
	j.mu.Lock()
	journaled := j.journaled
	base := j.ckptBase
	j.mu.Unlock()
	q := j.Query
	// chunks carries the cliques of the streaming job types (enumerate,
	// top_k) into the stream; nil for the scalar types.
	var chunks *chunker
	if j.cliques != nil {
		chunks = newChunker(j, ctx.Done(), s.obs.streamStall)
	}
	if journaled {
		// The running record anchors resume compatibility: the graph CRC and
		// branch count a restart must reproduce before skipping any branch.
		_ = s.jnl.AppendRunning(j.ID, distrib.FormatCRC(sess.GraphFingerprint()),
			j.Opts.SessionKey(), sess.NumTopBranches())
		switch j.Mode {
		case "enumerate":
			q.BranchDone = s.enumerateHook(j, chunks, base)
			q.OrderedEmit = true
		case "count":
			q.BranchDone = s.countHook(j, base, q.BranchLo)
		}
	}
	var stats *hbbmc.Stats
	var runErr error
	switch j.Mode {
	case "max_clique":
		var clique []int32
		clique, stats, runErr = sess.MaxClique(ctx, q)
		j.mu.Lock()
		j.maxClique = clique
		j.mu.Unlock()
	case "top_k":
		var cliques [][]int32
		cliques, stats, runErr = sess.TopK(ctx, j.K, q)
		// The results exist only after the full enumeration; push them into
		// the stream now. The channel may be smaller than k, so a missing
		// client still exerts backpressure here — bounded by k lines rather
		// than the whole enumeration.
		for _, c := range cliques {
			if !chunks.add(c) {
				break
			}
		}
		chunks.flush()
	case "kclique_count":
		_, stats, runErr = sess.CountKCliques(ctx, j.K, q)
	default:
		var visit hbbmc.Visitor
		if chunks != nil {
			visit = chunks.add
		}
		stats, runErr = sess.EnumerateWith(ctx, q, visit)
		if chunks != nil {
			chunks.flush() // the tail chunk
		}
	}
	if stats != nil && base != (journal.Ckpt{}) {
		// A resumed run enumerated only [cursor, N); fold the durable prefix
		// back in so the job reports the whole logical enumeration.
		stats.Cliques += base.Cliques
		if base.MaxSize > stats.MaxCliqueSize {
			stats.MaxCliqueSize = base.MaxSize
		}
	}
	s.slots.Release(j.Workers)
	if runErr != nil && stats == nil {
		s.jobs.markFailed(j, runErr.Error())
	} else {
		if j.cliques == nil && stats != nil {
			// Count jobs deliver their cliques as a number; account them
			// when the result is known.
			s.m.cliquesEmitted.Add(stats.Cliques)
		}
		s.jobs.finish(j, stats, runErr, ctx)
	}
	if j.cliques != nil {
		// Closed after the terminal state is recorded, so a reader that
		// drains the channel observes the final state and stats.
		close(j.cliques)
	}
}
