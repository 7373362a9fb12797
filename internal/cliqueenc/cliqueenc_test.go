package cliqueenc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// jsonLine and fmtLine are the encoders cliqueenc replaced: mced's
// reflection-based json.Encoder over a {"c":[...]} record and mce's
// per-vertex fmt writer. The table test pins the new encoders to their
// exact bytes.
func jsonLine(t testing.TB, c []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		C []int32 `json:"c"`
	}{c}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fmtLine(t testing.TB, c []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i, v := range c {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, v)
	}
	fmt.Fprintln(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func clique(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(i * 997)
	}
	return c
}

func TestEncodersMatchReplacedWriters(t *testing.T) {
	cases := map[string][]int32{
		"vertex 0":       {0},
		"max int32":      {math.MaxInt32},
		"1-vertex":       {42},
		"pair":           {3, 7},
		"21-vertex":      clique(21),
		"extremes":       {0, 1, 9, 10, 99, 100, math.MaxInt32 - 1, math.MaxInt32},
		"unsorted":       {17, 2, 40000, 5},
		"negative guard": {-1, math.MinInt32},
	}
	for name, c := range cases {
		if got, want := AppendNDJSON(nil, c), jsonLine(t, c); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendNDJSON = %q, json.Encoder = %q", name, got, want)
		}
		if got, want := AppendText(nil, c), fmtLine(t, c); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendText = %q, fmt writer = %q", name, got, want)
		}
		if line := AppendNDJSON(nil, c); !IsNDJSONLine(line[:len(line)-1]) {
			t.Errorf("%s: IsNDJSONLine rejects %q", name, line)
		}
	}
	// Appending extends, never overwrites, the caller's buffer.
	b := AppendNDJSON([]byte("x"), []int32{1})
	if string(b) != "x{\"c\":[1]}\n" {
		t.Fatalf("append onto a prefix: %q", b)
	}
}

func TestIsNDJSONLine(t *testing.T) {
	for _, ok := range []string{`{"c":[1]}`, `{"c":[0,1,2]}`, `{"c":[-5,2147483647]}`, `{"c":[]}`} {
		if !IsNDJSONLine([]byte(ok)) {
			t.Errorf("IsNDJSONLine(%s) = false", ok)
		}
	}
	for _, bad := range []string{
		``, `{"c":[1]`, `{"c":[1,]}`, `{"c":[,1]}`, `{"c":[1,,2]}`, `{"c":[1 2]}`,
		`{"c":[1-2]}`, `{"c":[-]}`, `{"c":[--1]}`, `{"c":[1.5]}`, `{"c":["1"]}`,
		`{"ckpt":3}`, `{"done":true}`, `{"c":[1]}x`, `{"c":[1]}` + "\n",
	} {
		if IsNDJSONLine([]byte(bad)) {
			t.Errorf("IsNDJSONLine(%s) = true", bad)
		}
	}
}

func TestEncodersDoNotAllocate(t *testing.T) {
	c := clique(21)
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendNDJSON(buf[:0], c)
		buf = AppendText(buf, c)
	}); n != 0 {
		t.Fatalf("encoders allocate %.1f times per clique with a reused buffer", n)
	}
}

// FuzzAppendNDJSON checks, for arbitrary vertex ids, that the encoder
// matches encoding/json byte for byte, that the record decodes back to the
// clique, and that the structural check accepts it. The seed corpus runs
// under plain go test.
func FuzzAppendNDJSON(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(bytes.Repeat([]byte{7, 1, 0, 0}, 21))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := make([]int32, len(raw)/4)
		for i := range c {
			c[i] = int32(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		if len(c) == 0 {
			return // the engines never emit an empty clique
		}
		got := AppendNDJSON(nil, c)
		if want := jsonLine(t, c); !bytes.Equal(got, want) {
			t.Fatalf("AppendNDJSON(%v) = %q, json.Encoder = %q", c, got, want)
		}
		if !IsNDJSONLine(got[:len(got)-1]) {
			t.Fatalf("IsNDJSONLine rejects %q", got)
		}
		var back struct {
			C []int32 `json:"c"`
		}
		if err := json.Unmarshal(got, &back); err != nil || fmt.Sprint(back.C) != fmt.Sprint(c) {
			t.Fatalf("round trip of %q: %v %v", got, back.C, err)
		}
		if want := fmtLine(t, c); !bytes.Equal(AppendText(nil, c), want) {
			t.Fatalf("AppendText(%v) differs from the fmt writer", c)
		}
	})
}
