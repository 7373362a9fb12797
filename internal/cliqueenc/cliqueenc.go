// Package cliqueenc is the one clique encoder of the repository: mce's text
// output and mced's NDJSON clique stream both append through it, so the
// two wire formats have a single, allocation-free implementation.
//
// Both encoders append to a caller-owned buffer and return it, in the
// strconv.Append* style; with a reused buffer of sufficient capacity they
// do not allocate (//hbbmc:noalloc, enforced by mcelint).
package cliqueenc

import (
	"bytes"
	"strconv"
)

// AppendText appends c as one line of space-separated vertex ids — mce's
// output format — and returns the extended buffer.
//
//hbbmc:noalloc
func AppendText(b []byte, c []int32) []byte {
	for i, v := range c {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, '\n')
}

// AppendNDJSON appends c as one NDJSON clique record, {"c":[v1,v2,...]}
// and a newline — the bytes encoding/json writes for a struct with one
// `json:"c"` []int32 field — and returns the extended buffer. An empty
// clique encodes as {"c":[]}; the engines never emit one.
//
//hbbmc:noalloc
func AppendNDJSON(b []byte, c []int32) []byte {
	b = append(b, ndjsonPrefix...)
	for i, v := range c {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ndjsonSuffix...)
}

const (
	ndjsonPrefix = `{"c":[`
	ndjsonSuffix = "]}\n"
)

// IsNDJSONLine reports whether line (without its newline) has the shape
// AppendNDJSON writes: {"c":[ followed by comma-separated decimal integers
// and ]}. It is the cheap structural check a consumer forwarding clique
// records verbatim uses in place of a full JSON decode.
func IsNDJSONLine(line []byte) bool {
	body, ok := bytes.CutPrefix(line, []byte(ndjsonPrefix))
	if !ok {
		return false
	}
	body, ok = bytes.CutSuffix(body, []byte("]}"))
	if !ok {
		return false
	}
	// Each comma-separated field is an optional '-' and at least one digit.
	digits := 0
	for i, ch := range body {
		switch {
		case ch >= '0' && ch <= '9':
			digits++
		case ch == ',' && digits > 0:
			digits = 0
		case ch == '-' && (i == 0 || body[i-1] == ','):
		default:
			return false
		}
	}
	return digits > 0 || len(body) == 0
}
