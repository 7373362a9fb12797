package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/service"
)

// node is one in-process mced server behind a loopback listener, the same
// wiring cmd/mced uses.
type node struct {
	srv  *service.Server
	http *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

func startNode(cfg service.Config) (*node, error) {
	srv, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	n := &node{srv: srv, http: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln)
	}()
	return n, nil
}

// close cancels the node's jobs and waits for them to end, then closes its
// connections and waits for Serve to return. Once no job is left, Close
// loses nothing; http.Server.Shutdown would wait 5 s for any connection a
// client opened but never used.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	_ = n.http.Close()
	<-n.done
}

// opTimeout bounds one op, so a hung job fails its op instead of the run.
const opTimeout = time.Minute

// httpClient keeps idle connections for every client of a server, so a
// closed loop reuses its connection the way a long-lived caller would.
var httpClient = &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

// jobReq is the POST /v1/jobs body the benchmark sends.
type jobReq struct {
	Dataset   string `json:"dataset"`
	Type      string `json:"type"`
	Algorithm string `json:"algorithm,omitempty"`
	K         int    `json:"k,omitempty"`
	Workers   int    `json:"workers"`
}

func postJSON(url string, body any, want int, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply, out)
}

func register(base, name, path string) error {
	return postJSON(base+"/v1/datasets", map[string]string{"name": name, "path": path}, http.StatusCreated, nil)
}

func submit(base string, req jobReq) (service.JobView, error) {
	var v service.JobView
	err := postJSON(base+"/v1/jobs", req, http.StatusAccepted, &v)
	return v, err
}

// wait long-polls a job until it is terminal and requires it to be done.
func wait(base string, v service.JobView) (service.JobView, error) {
	for v.State == service.StateQueued || v.State == service.StateRunning {
		resp, err := httpClient.Get(base + "/v1/jobs/" + v.ID + "?wait=20s")
		if err != nil {
			return v, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return v, fmt.Errorf("job %s: %s", v.ID, resp.Status)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return v, err
		}
	}
	if v.State != service.StateDone {
		return v, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if v.Stats == nil {
		return v, fmt.Errorf("job %s has no stats", v.ID)
	}
	return v, nil
}

// trailer is the last line of a job's NDJSON clique stream.
type trailer struct {
	Done    bool         `json:"done"`
	State   string       `json:"state"`
	Error   string       `json:"error"`
	Cliques int64        `json:"cliques"`
	Stats   *hbbmc.Stats `json:"stats"`
}

// streamResult is what the client saw on one clique stream.
type streamResult struct {
	d     digest
	bytes int64
	first time.Duration // from the GET to the first clique line
	tr    trailer
}

// stream reads a job's clique stream to its trailer, folding every clique
// into a digest.
func stream(base, id string) (streamResult, error) {
	var res streamResult
	start := time.Now()
	resp, err := httpClient.Get(base + "/v1/jobs/" + id + "/cliques")
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return res, fmt.Errorf("stream %s: %s: %s", id, resp.Status, bytes.TrimSpace(msg))
	}
	r := bufio.NewReaderSize(resp.Body, 1<<16)
	c := make([]int32, 0, 64)
	for {
		line, err := readLine(r)
		res.bytes += int64(len(line))
		switch {
		case bytes.HasPrefix(line, []byte(`{"c":[`)):
			if res.d.N == 0 {
				res.first = time.Since(start)
			}
			c = parseInts(line[6:], c[:0])
			res.d.add(c)
		case bytes.HasPrefix(line, []byte(`{"ckpt":`)):
		case len(line) > 0:
			if err := json.Unmarshal(line, &res.tr); err != nil {
				return res, fmt.Errorf("stream %s: bad line %.80q", id, line)
			}
			if !res.tr.Done || res.tr.State != string(service.StateDone) {
				return res, fmt.Errorf("stream %s ended %s: %s", id, res.tr.State, res.tr.Error)
			}
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("stream %s: no trailer: %w", id, err)
		}
	}
}

// readLine returns the next line including its newline; a line longer than
// the reader's buffer (a trailer carrying a long trace) is assembled.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// parseInts appends the non-negative integers of b, up to its first ']' or
// newline, to dst.
func parseInts(b []byte, dst []int32) []int32 {
	v, in := int32(0), false
	for _, ch := range b {
		if ch >= '0' && ch <= '9' {
			v, in = v*10+int32(ch-'0'), true
			continue
		}
		if in {
			dst = append(dst, v)
			v, in = 0, false
		}
		if ch == ']' || ch == '\n' {
			break
		}
	}
	if in {
		dst = append(dst, v)
	}
	return dst
}
