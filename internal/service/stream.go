package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/cliqueenc"
	"github.com/graphmining/hbbmc/internal/obs"
)

// This file is the emit path of the clique-streaming jobs (enumerate,
// top_k and the coordinator's merge): producers encode cliques with
// cliqueenc.AppendNDJSON into chunks of whole NDJSON records, only whole
// chunks cross the job's channel, and the stream handler writes and
// flushes each chunk as it arrives.

// streamItem is one element of a job's clique channel: either a chunk of
// whole NDJSON clique records (b, holding n cliques) on its way to the
// stream, or (ckpt > 0) a checkpoint marker telling the client that every
// clique of residue + branches [0, ckpt) has been delivered and the
// watermark is durable — the cursor a reconnecting client hands back as
// ?resume_after=.
type streamItem struct {
	b    []byte
	n    int
	ckpt int
}

// A chunk closes at chunkMaxCliques cliques (fewer when the job's stream
// buffer is smaller) or once it holds chunkMaxBytes of records, whichever
// comes first: large enough that the channel operation, the write and the
// flush amortise over hundreds of cliques, small enough that a live client
// still sees cliques promptly.
const (
	chunkMaxCliques = 256
	chunkMaxBytes   = 32 << 10
)

// streamShape sizes a job's clique channel for a stream buffer of buffer
// cliques: chunk cliques per chunk and slots channel slots. slots × chunk
// never exceeds buffer, so the buffer still bounds the cliques in flight
// and a client that stops reading blocks the producer as before.
func streamShape(buffer int) (chunk, slots int) {
	chunk = min(max(buffer, 1), chunkMaxCliques)
	return chunk, buffer / chunk
}

// chunker builds a job's current chunk and sends whole chunks down its
// clique channel. One goroutine drives it at a time: the engine calls the
// visitor serially, and under ordered emission the checkpoint hook runs on
// the same releasing goroutine; top_k and the coordinator's deliver drive
// their own chunker.
type chunker struct {
	out   chan<- streamItem
	done  <-chan struct{}
	stall *obs.Histogram
	max   int // cliques per chunk
	buf   []byte
	n     int
}

func newChunker(j *Job, done <-chan struct{}, stall *obs.Histogram) *chunker {
	return &chunker{out: j.cliques, done: done, stall: stall, max: j.chunk}
}

// add encodes c into the current chunk and sends the chunk once it is
// full. It is the job's hbbmc.Visitor: false means the job ended while the
// chunk waited for channel room.
func (k *chunker) add(c []int32) bool {
	k.buf = cliqueenc.AppendNDJSON(k.buf, c)
	return k.added()
}

// addRecord appends one already-encoded NDJSON clique record (newline
// included), as the coordinator forwards shard streams verbatim.
func (k *chunker) addRecord(rec []byte) bool {
	k.buf = append(k.buf, rec...)
	return k.added()
}

func (k *chunker) added() bool {
	k.n++
	if k.n < k.max && len(k.buf) < chunkMaxBytes {
		return true
	}
	return k.flush()
}

// flush sends the current chunk, if any. The sent bytes belong to the
// stream handler from then on, so the next chunk starts in a fresh buffer
// sized after this one.
func (k *chunker) flush() bool {
	if k.n == 0 {
		return true
	}
	it := streamItem{b: k.buf, n: k.n}
	k.buf, k.n = make([]byte, 0, len(it.b)+len(it.b)/4), 0
	return k.send(it)
}

// send puts one item on the channel. The bounded channel is the
// backpressure: a slow (or absent) streaming client blocks the producer
// here until it drains or the job ends. The fast path (room in the
// channel) stays un-instrumented; only actual stalls are timed.
func (k *chunker) send(it streamItem) bool {
	select {
	case k.out <- it:
		return true
	default:
	}
	stallStart := time.Now()
	defer func() { k.stall.ObserveDuration(time.Since(stallStart)) }()
	select {
	case k.out <- it:
		return true
	case <-k.done:
		return false
	}
}

// appendCkptLine appends the checkpoint marker record {"ckpt":w}: every
// clique of residue + branches [0, w) has been delivered above this line
// and the watermark is durable in the journal. A client that loses the
// connection discards whatever it received after the last marker and
// reconnects with ?resume_after=w to see the remaining cliques exactly
// once.
func appendCkptLine(b []byte, w int) []byte {
	b = append(b, `{"ckpt":`...)
	b = strconv.AppendInt(b, int64(w), 10)
	return append(b, "}\n"...)
}

// streamTrailer is the stream's final NDJSON record. Stats lets a
// distributed coordinator collect a shard's counters from the same stream
// that carried its cliques, without a follow-up status request; Trace does
// the same for the shard's span timeline, which the coordinator merges into
// its own job's trace.
type streamTrailer struct {
	Done       bool           `json:"done"`
	State      JobState       `json:"state"`
	StopReason string         `json:"stop_reason,omitempty"`
	Error      string         `json:"error,omitempty"`
	Cliques    int64          `json:"cliques"`
	Stats      *hbbmc.Stats   `json:"stats,omitempty"`
	Trace      *obs.TraceView `json:"trace,omitempty"`
}

// handleStreamCliques streams a job's cliques as NDJSON ({"c":[...]} per
// line, a {"done":true,...} trailer). Exactly one client may stream a job;
// the stream delivers every clique exactly once. Each chunk is written and
// flushed as it arrives, so a live client sees cliques a chunk at a time
// without a per-line flush. A client disconnect cancels the job — without
// its one consumer the enumeration would otherwise block on the full
// channel until the deadline.
//
//hbbmc:ctxpoll
func (s *Server) handleStreamCliques(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.cliques == nil {
		writeError(w, http.StatusBadRequest, "job %s is a %s job; it has no clique stream", j.ID, j.Mode)
		return
	}
	cursor := 0
	if v := r.URL.Query().Get("resume_after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid resume_after %q", v)
			return
		}
		cursor = n
	}
	if !j.streamClaim.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, "job %s already has a streaming client", j.ID)
		return
	}
	j.mu.Lock()
	rs := j.resume
	j.mu.Unlock()
	switch {
	case rs != nil:
		// A journal-restored job has no producer yet: start its resume run
		// from the client's cursor before entering the stream loop.
		if status, err := s.startResume(j, cursor); err != nil {
			j.streamClaim.Store(false)
			writeError(w, status, "%v", err)
			return
		}
	case cursor != 0:
		j.streamClaim.Store(false)
		writeError(w, http.StatusBadRequest,
			"job %s has no journaled progress to resume; resume_after applies to restored jobs", j.ID)
		return
	}

	drainStart := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	clientGone := r.Context().Done()
	var marker []byte
	for {
		var it streamItem
		var open bool
		select {
		case it, open = <-j.cliques:
		case <-clientGone:
			j.requestCancel("client disconnected")
			return
		}
		if !open {
			break
		}
		rec := it.b
		if it.ckpt > 0 {
			marker = appendCkptLine(marker[:0], it.ckpt)
			rec = marker
		}
		if _, err := w.Write(rec); err != nil {
			j.requestCancel("client disconnected")
			return
		}
		flush()
		j.delivered.Add(int64(it.n))
		s.m.cliquesEmitted.Add(int64(it.n))
	}

	// The channel closes only after the terminal state is recorded.
	<-j.Done()
	// The drain span covers the whole streaming handler; recorded before the
	// trailer snapshots the timeline so the client (and a coordinator
	// merging shard traces) sees it.
	j.trace.Record("drain", drainStart, time.Since(drainStart))
	v := j.View()
	tv := j.trace.View()
	_ = json.NewEncoder(w).Encode(streamTrailer{
		Done:       true,
		State:      v.State,
		StopReason: v.StopReason,
		Error:      v.Error,
		Cliques:    j.delivered.Load(),
		Stats:      v.Stats,
		Trace:      &tv,
	})
	flush()
}
