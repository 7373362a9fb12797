package service_test

import (
	"context"
	"net/http"
	"slices"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/service"
)

// sortedCliques enumerates every maximal clique of g in-process and sorts
// them under the top-k total order (size descending, then lexicographically
// ascending on the sorted vertices).
func sortedCliques(t *testing.T, g *hbbmc.Graph) [][]int32 {
	t.Helper()
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := sess.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		slices.Sort(c)
	}
	slices.SortFunc(all, func(a, b []int32) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return slices.Compare(a, b)
	})
	return all
}

// bruteTriangles counts the 3-cliques of g directly.
func bruteTriangles(g *hbbmc.Graph) int64 {
	n := int32(g.NumVertices())
	var count int64
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w > v && g.HasEdge(u, w) {
					count++
				}
			}
		}
	}
	return count
}

func TestMaxCliqueJob(t *testing.T) {
	withTestProcs(t, 2)
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(300, 2400, 21)
	e.registerGraph("er", g)
	want := len(sortedCliques(t, g)[0])

	v := e.startJob(map[string]any{"dataset": "er", "type": "max_clique", "workers": 2})
	if v.Type != "max_clique" || v.Mode != "max_clique" {
		t.Fatalf("job view type=%q mode=%q, want max_clique for both", v.Type, v.Mode)
	}
	v = e.waitJob(v.ID)
	if v.State != service.StateDone || v.Stats == nil {
		t.Fatalf("max_clique job: state=%s stats=%v", v.State, v.Stats)
	}
	if len(v.MaxClique) != want || v.Stats.MaxCliqueSize != want {
		t.Fatalf("witness %v (ω reported %d), want size %d", v.MaxClique, v.Stats.MaxCliqueSize, want)
	}
	if !g.IsClique(v.MaxClique) {
		t.Fatalf("witness %v is not a clique", v.MaxClique)
	}
	// The scalar-result job has no clique stream.
	resp, _ := e.do("GET", "/v1/jobs/"+v.ID+"/cliques", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream on a max_clique job = %d, want 400", resp.StatusCode)
	}
	if e.metric("jobs_type_max_clique") != 1 {
		t.Fatalf("jobs_type_max_clique = %d, want 1", e.metric("jobs_type_max_clique"))
	}
}

func TestTopKJobStreamsLargestCliques(t *testing.T) {
	withTestProcs(t, 2)
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(300, 2400, 22)
	e.registerGraph("er", g)
	const k = 5
	want := sortedCliques(t, g)
	if len(want) > k {
		want = want[:k]
	}

	v := e.startJob(map[string]any{"dataset": "er", "type": "top_k", "k": k, "workers": 2})
	if v.K != k {
		t.Fatalf("job view k=%d, want %d", v.K, k)
	}
	cliques, trailer := streamJob(t, e, v.ID)
	if trailer == nil || trailer["state"] != string(service.StateDone) {
		t.Fatalf("trailer = %v, want done", trailer)
	}
	if !slices.EqualFunc(cliques, want, slices.Equal) {
		t.Fatalf("streamed top-%d:\n got %v\nwant %v", k, cliques, want)
	}
	if e.metric("jobs_type_top_k") != 1 {
		t.Fatalf("jobs_type_top_k = %d, want 1", e.metric("jobs_type_top_k"))
	}
}

func TestKCliqueCountJob(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(200, 1600, 23)
	e.registerGraph("er", g)
	want := bruteTriangles(g)

	v := e.startJob(map[string]any{"dataset": "er", "type": "kclique_count", "k": 3})
	v = e.waitJob(v.ID)
	if v.State != service.StateDone || v.Stats == nil {
		t.Fatalf("kclique_count job: state=%s stats=%v", v.State, v.Stats)
	}
	if v.Stats.KCliques != want {
		t.Fatalf("Stats.KCliques = %d, want %d triangles", v.Stats.KCliques, want)
	}
	resp, _ := e.do("GET", "/v1/jobs/"+v.ID+"/cliques", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream on a kclique_count job = %d, want 400", resp.StatusCode)
	}
	if e.metric("jobs_type_kclique_count") != 1 {
		t.Fatalf("jobs_type_kclique_count = %d, want 1", e.metric("jobs_type_kclique_count"))
	}
}

func TestJobTypeValidation(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(100, 300, 24)
	e.registerGraph("er", g)
	for name, req := range map[string]map[string]any{
		"unknown type":             {"dataset": "er", "type": "biggest"},
		"top_k without k":          {"dataset": "er", "type": "top_k"},
		"kclique_count k=0":        {"dataset": "er", "type": "kclique_count", "k": 0},
		"negative k":               {"dataset": "er", "type": "top_k", "k": -2},
		"k on enumerate":           {"dataset": "er", "type": "enumerate", "k": 3},
		"k on count":               {"dataset": "er", "mode": "count", "k": 3},
		"type/mode disagree":       {"dataset": "er", "type": "count", "mode": "enumerate"},
		"branch_range on max":      {"dataset": "er", "type": "max_clique", "branch_range": []int{0, 4}},
		"branch_range on top_k":    {"dataset": "er", "type": "top_k", "k": 2, "branch_range": []int{0, 4}},
		"branch_range on kcliques": {"dataset": "er", "type": "kclique_count", "k": 3, "branch_range": []int{0, 4}},
	} {
		resp, data := e.do("POST", "/v1/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	// "type" and "mode" agreeing (or either alone) are all accepted.
	for _, req := range []map[string]any{
		{"dataset": "er", "type": "count"},
		{"dataset": "er", "mode": "count"},
		{"dataset": "er", "type": "count", "mode": "count"},
	} {
		v := e.startJob(req)
		if v.Type != "count" {
			t.Fatalf("job view type = %q, want count (req %v)", v.Type, req)
		}
		e.waitJob(v.ID)
	}
}
