package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/service"
)

// TestCheckpointMarkersFollowTheirCliques streams a journaled 2-worker
// enumerate job that checkpoints after every completed branch chunk and
// checks the ordering contract across chunk boundaries: the cliques seen
// before each {"ckpt":W} marker are exactly the cliques of a BranchHi: W
// run of the same session. Both the 5-clique chunks of a 5-clique buffer
// and the default 256-clique chunks are narrower than the widest interval
// between markers, so markers land both on and between chunk boundaries.
func TestCheckpointMarkersFollowTheirCliques(t *testing.T) {
	withTestProcs(t, 2)
	g := hbbmc.GenerateER(400, 3200, 21)
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prefix := func(w int) map[string]bool {
		var cliques [][]int32
		_, err := sess.EnumerateWith(context.Background(), hbbmc.QueryOptions{BranchHi: w}, func(c []int32) bool {
			cliques = append(cliques, append([]int32(nil), c...))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return cliqueSet(t, cliques)
	}

	for _, tc := range []struct{ buffer, chunk int }{{5, 5}, {0, 256}} {
		buffer := tc.buffer
		e := openJournaled(t, service.Config{JournalDir: t.TempDir(), CheckpointInterval: -1})
		e.waitReady()
		e.registerGraph("er", g)
		v := e.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "workers": 2, "buffer": buffer})
		resp, err := e.ts.Client().Get(e.ts.URL + "/v1/jobs/" + v.ID + "/cliques")
		if err != nil {
			t.Fatal(err)
		}
		var seen [][]int32
		markers, widest, last := 0, 0, 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var line struct {
				C    []int32 `json:"c"`
				Ckpt int     `json:"ckpt"`
				Done bool    `json:"done"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			switch {
			case line.Done:
			case line.Ckpt > 0:
				markers++
				widest = max(widest, len(seen)-last)
				last = len(seen)
				sameCliqueSet(t, fmt.Sprintf("buffer %d, cliques before {\"ckpt\":%d}", buffer, line.Ckpt), cliqueSet(t, seen), prefix(line.Ckpt))
			default:
				seen = append(seen, line.C)
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if markers < 2 {
			t.Fatalf("buffer %d: %d checkpoint markers, want several", buffer, markers)
		}
		if widest <= tc.chunk {
			t.Fatalf("buffer %d: widest marker interval holds %d cliques; no chunk boundary was crossed", buffer, widest)
		}
		e.stop()
	}
}

// postHuge posts a JSON body of just over 1 MiB (one oversized string
// field) and returns the status.
func postHuge(t *testing.T, e *testEnv, path, field string) int {
	t.Helper()
	body := `{"` + field + `":"` + strings.Repeat("a", 1<<20) + `"}`
	resp, err := e.ts.Client().Post(e.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestCreateJobBodyLimit(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	if status := postHuge(t, e, "/v1/jobs", "dataset"); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /v1/jobs past the body bound: status %d, want 413", status)
	}
}

func TestRegisterDatasetBodyLimit(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	if status := postHuge(t, e, "/v1/datasets", "path"); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /v1/datasets past the body bound: status %d, want 413", status)
	}
}
