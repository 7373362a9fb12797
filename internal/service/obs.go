package service

import (
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/graphmining/hbbmc/internal/obs"
)

// serverObs bundles the server's Prometheus-facing instrumentation: the
// latency histograms fed by the job lifecycle, the function metrics
// mirroring the expvar counter set, and the Go runtime collectors. One
// serverObs belongs to one Server (nothing registers globally), so tests
// and embedders can run servers side by side with independent scrapes.
type serverObs struct {
	reg *obs.Registry

	// jobLatency observes submission→terminal wall time of every job.
	jobLatency *obs.Histogram
	// queueWait observes the admission wait until worker slots were granted
	// (admitted jobs only — rejected requests never hold slots).
	queueWait *obs.Histogram
	// phases observe the per-phase enumeration timers of jobs that ran with
	// phase timers enabled, indexed like core.Stats.PhaseTimes.
	phases [4]*obs.Histogram
	// streamStall observes how long a clique producer blocked on the full
	// stream channel waiting for the streaming client, once per stalled
	// chunk send.
	streamStall *obs.Histogram
	// sessionBuild observes cache-miss session construction (parse-free
	// preprocessing); cache hits cost nothing and are not observed.
	sessionBuild *obs.Histogram
	// journalFsync observes the write-ahead journal's per-append fsync.
	journalFsync *obs.Histogram
	// shardRTT observes the coordinator's dispatch POST round trip per
	// shard attempt.
	shardRTT *obs.Histogram

	// slowLast is the unix-nanosecond timestamp of the last slow-query dump;
	// at most one dump per second survives the rate limit.
	slowLast atomic.Int64
}

// phaseNames indexes serverObs.phases, matching core.Stats.PhaseTimes.
var phaseNames = [4]string{"universe", "pivot", "et", "emit"}

func newServerObs(m *metrics) *serverObs {
	r := obs.NewRegistry()
	o := &serverObs{reg: r}
	o.jobLatency = r.Histogram("mced_job_duration_seconds",
		"End-to-end job latency from submission to terminal state.", "", obs.LatencyBuckets())
	o.queueWait = r.Histogram("mced_queue_wait_seconds",
		"Admission-queue wait until worker slots were granted.", "", obs.FineBuckets())
	for i, phase := range phaseNames {
		o.phases[i] = r.Histogram("mced_phase_seconds",
			"Per-phase enumeration time of jobs run with phase timers.",
			`phase="`+phase+`"`, obs.FineBuckets())
	}
	o.streamStall = r.Histogram("mced_stream_stall_seconds",
		"Time a clique producer blocked on a full stream channel waiting for the streaming client, per stalled chunk send.",
		"", obs.FineBuckets())
	o.sessionBuild = r.Histogram("mced_session_build_seconds",
		"Session construction time on cache misses (ordering preprocessing).", "", obs.LatencyBuckets())
	o.journalFsync = r.Histogram("mced_journal_fsync_seconds",
		"Write-ahead journal fsync latency per appended record.", "", obs.FineBuckets())
	o.shardRTT = r.Histogram("mced_shard_rtt_seconds",
		"Coordinator shard dispatch round-trip time per attempt.", "", obs.FineBuckets())
	for _, kv := range m.vars() {
		kind, help := obs.KindCounter, "Cumulative counter from the mced metrics set."
		if kv.gauge {
			kind, help = obs.KindGauge, "Gauge from the mced metrics set."
		}
		v := kv.v
		r.Func("mced_"+kv.name, help, "", kind, func() float64 { return float64(v.Value()) })
	}
	r.RegisterGoRuntime()
	return o
}

// jobTerminal is the jobManager's terminal hook, invoked on every terminal
// transition before the job's done channel closes: it feeds the latency and
// per-phase histograms, closes the trace timeline with its "run" span, logs
// the outcome and emits the sampled slow-query report.
func (s *Server) jobTerminal(j *Job) {
	j.mu.Lock()
	created, started, finished := j.created, j.started, j.finished
	state, reason, errMsg := j.state, j.stopReason, j.errMsg
	stats := j.stats
	wait := j.queueWait
	j.mu.Unlock()

	e2e := finished.Sub(created)
	s.obs.jobLatency.ObserveDuration(e2e)
	if !started.IsZero() {
		j.trace.Record("run", started, finished.Sub(started))
	}
	if stats != nil {
		for i, pt := range stats.PhaseTimes() {
			if pt.Duration > 0 {
				s.obs.phases[i].ObserveDuration(pt.Duration)
			}
		}
	}

	log := s.log.With(
		slog.String("job", j.ID),
		slog.String("trace", j.trace.ID()),
		slog.String("dataset", j.Dataset),
		slog.String("type", j.Mode),
		slog.String("state", string(state)))
	attrs := []any{
		slog.Duration("duration", e2e),
		slog.Duration("queue_wait", wait),
		slog.Int64("cliques_delivered", j.delivered.Load()),
	}
	if reason != "" {
		attrs = append(attrs, slog.String("stop_reason", reason))
	}
	if errMsg != "" {
		attrs = append(attrs, slog.String("error", errMsg))
	}
	if stats != nil {
		attrs = append(attrs, slog.Int64("cliques", stats.Cliques), slog.Int("max_clique_size", stats.MaxCliqueSize))
	}
	log.Info("job finished", attrs...)

	if s.cfg.SlowQuery <= 0 || e2e < s.cfg.SlowQuery {
		return
	}
	// Sampled: at most one full dump per second, so a saturated server with
	// a pathological dataset cannot turn its own slow-query log into load.
	now := time.Now().UnixNano()
	last := s.obs.slowLast.Load()
	if now-last < int64(time.Second) || !s.obs.slowLast.CompareAndSwap(last, now) {
		s.m.slowQueriesSuppressed.Add(1)
		return
	}
	s.m.slowQueries.Add(1)
	slow := []any{
		slog.Duration("duration", e2e),
		slog.Duration("threshold", s.cfg.SlowQuery),
		slog.Any("timeline", j.trace.View()),
	}
	if stats != nil {
		slow = append(slow, slog.Any("stats", stats))
	}
	log.Warn("slow query", slow...)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's span timeline
// under its trace ID. For a coordinator job the timeline includes the spans
// merged back from its worker peers, each tagged with the peer's base URL.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.trace.View())
}
