package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/cliqueenc"
	"github.com/graphmining/hbbmc/internal/verify"
)

// TestMain lets the output tests run mce's real main in a child process
// (the test binary re-executed with runMainEnv set), so exit codes and
// the flush-before-exit paths are exercised as users see them.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "MCE_TEST_RUN_MAIN"

// runMCE runs mce with args on procs cores and returns its stdout and exit
// code.
func runMCE(t *testing.T, procs int, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.Bytes(), 0
	case errors.As(err, &exit):
		return stdout.Bytes(), exit.ExitCode()
	}
	t.Fatalf("mce %v: %v\n%s", args, err, stderr.Bytes())
	return nil, 0
}

// parseCliques reads mce's text output, failing on any line that is not a
// complete clique.
func parseCliques(t *testing.T, out []byte) [][]int32 {
	t.Helper()
	if len(out) > 0 && out[len(out)-1] != '\n' {
		t.Fatalf("output ends mid-line: %q", out[max(0, len(out)-40):])
	}
	var cliques [][]int32
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		if line == "" {
			continue
		}
		var c []int32
		for _, f := range strings.Split(line, " ") {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				t.Fatalf("bad output line %q: %v", line, err)
			}
			c = append(c, int32(v))
		}
		cliques = append(cliques, c)
	}
	return cliques
}

func testGraphFile(t *testing.T) (*hbbmc.Graph, string) {
	t.Helper()
	g := hbbmc.GenerateER(400, 4000, 5)
	path := filepath.Join(t.TempDir(), "g.hbg")
	if err := g.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return g, path
}

// TestCliqueOutputMatchesOracle checks mce's clique output, sequential and
// parallel, against the independent Bron–Kerbosch oracle.
func TestCliqueOutputMatchesOracle(t *testing.T) {
	g, path := testGraphFile(t)
	want := verify.Canonicalize(verify.MaximalCliques(g))
	for _, workers := range []int{1, 2} {
		out, code := runMCE(t, workers, "-in", path, "-workers", strconv.Itoa(workers))
		if code != 0 {
			t.Fatalf("-workers %d: exit %d", workers, code)
		}
		got := verify.Canonicalize(parseCliques(t, out))
		if d := verify.Diff(got, want); d != "" {
			t.Fatalf("-workers %d: output differs from the oracle: %s", workers, d)
		}
	}
}

// TestMaxCliquesOutputIsComplete checks the -maxcliques early exit: exit
// status 3 and exactly the budgeted number of complete clique lines, all
// flushed before the exit.
func TestMaxCliquesOutputIsComplete(t *testing.T) {
	g, path := testGraphFile(t)
	for _, workers := range []int{1, 2} {
		out, code := runMCE(t, workers, "-in", path, "-workers", strconv.Itoa(workers), "-maxcliques", "5")
		if code != exitStopped {
			t.Fatalf("-workers %d -maxcliques 5: exit %d, want %d", workers, code, exitStopped)
		}
		cliques := parseCliques(t, out)
		if len(cliques) != 5 {
			t.Fatalf("-workers %d -maxcliques 5: %d lines, want 5", workers, len(cliques))
		}
		if err := verify.CheckAllMaximal(g, cliques); err != nil {
			t.Fatalf("-workers %d: %v", workers, err)
		}
	}
}

// TestCliqueWriter pins the writer to the shared text encoder, across
// lines longer than the free buffer space, and checks that a write error
// surfaces from Flush.
func TestCliqueWriter(t *testing.T) {
	var buf, want bytes.Buffer
	w := newCliqueWriter(&buf)
	for i := range 5000 {
		c := make([]int32, 1+i%40)
		for j := range c {
			c[j] = int32(i*131 + j)
		}
		w.WriteClique(c)
		want.Write(cliqueenc.AppendText(nil, c))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("cliqueWriter output differs from cliqueenc.AppendText")
	}

	fail := newCliqueWriter(failWriter{})
	for range 20000 {
		fail.WriteClique([]int32{1, 2, 3})
	}
	if err := fail.Flush(); err == nil {
		t.Fatal("a failed write did not surface from Flush")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
