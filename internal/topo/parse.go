package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Parse decodes a Spec from a JSON document, which must be one object.
// Decoding is strict — unknown fields and repeated keys are errors, so a
// typo'd or doubled key never silently vanishes. Parse performs syntax
// and schema decoding only; call Spec.Validate for semantic checks.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("topo: empty spec document")
	}
	if trimmed[0] != '{' {
		return nil, fmt.Errorf("topo: spec must be JSON: one object starting with '{'")
	}
	if err := checkRepeatedKeys(trimmed); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("topo: parse spec: %w", err)
	}
	// Trailing garbage after the document is an error.
	if dec.More() {
		return nil, fmt.Errorf("topo: trailing data after spec document")
	}
	// Emit omits empty optional lists, so an empty one parses as nil and
	// Parse(Emit(s)) reproduces s.
	if len(spec.Faults) == 0 {
		spec.Faults = nil
	}
	for i := range spec.Procs {
		if len(spec.Procs[i].ReplicaJitterUs) == 0 {
			spec.Procs[i].ReplicaJitterUs = nil
		}
	}
	return &spec, nil
}

// checkRepeatedKeys scans the document's first JSON value token by token
// and rejects an object, at any depth, that names one key twice.
// encoding/json would keep the last value. It matches keys to fields
// case-insensitively, so keys that are equal under bytes.EqualFold (its
// rule) repeat too. The scan allocates only per object and per escaped
// key; it leaves syntax errors to the decoder, which reports them.
func checkRepeatedKeys(data []byte) error {
	type level struct {
		obj    bool
		wanted bool     // an object expects a key next
		keys   [][]byte // an object's keys so far, the last one current
		index  int      // an array's next element
	}
	var stack []level
	// valueDone moves the innermost level past one complete value and
	// reports whether the document's first value is complete.
	valueDone := func() bool {
		if len(stack) == 0 {
			return true
		}
		if top := &stack[len(stack)-1]; top.obj {
			top.wanted = true
		} else {
			top.index++
		}
		return false
	}
	path := func() string {
		var b strings.Builder
		for _, l := range stack[:len(stack)-1] {
			if l.obj {
				if b.Len() > 0 {
					b.WriteByte('.')
				}
				b.Write(l.keys[len(l.keys)-1])
			} else {
				b.WriteString("[" + strconv.Itoa(l.index) + "]")
			}
		}
		if b.Len() == 0 {
			return "the spec document"
		}
		return b.String()
	}
	for i := 0; i < len(data); i++ {
		switch c := data[i]; c {
		case ' ', '\t', '\r', '\n', ':', ',':
		case '{', '[':
			if n := len(stack); n > 0 && stack[n-1].obj && stack[n-1].wanted {
				return nil // a value where a key belongs: a syntax error
			}
			stack = append(stack, level{obj: c == '{', wanted: c == '{'})
		case '}', ']':
			if len(stack) == 0 {
				return nil
			}
			stack = stack[:len(stack)-1]
			if valueDone() {
				return nil
			}
		case '"':
			j, escaped := i+1, false
			for ; j < len(data) && data[j] != '"'; j++ {
				if data[j] == '\\' {
					escaped = true
					j++
				}
			}
			if j >= len(data) || len(stack) == 0 {
				return nil
			}
			if top := &stack[len(stack)-1]; top.obj && top.wanted {
				key := data[i+1 : j]
				if escaped {
					var k string
					if json.Unmarshal(data[i:j+1], &k) != nil {
						return nil
					}
					key = []byte(k)
				}
				for _, k := range top.keys {
					if bytes.EqualFold(k, key) {
						return fmt.Errorf("topo: parse spec: key %q repeated in %s", key, path())
					}
				}
				top.keys, top.wanted = append(top.keys, key), false
			} else if valueDone() {
				return nil
			}
			i = j
		default: // a number, true, false or null runs to the next delimiter
			for i+1 < len(data) && strings.IndexByte(" \t\r\n,:]}", data[i+1]) < 0 {
				i++
			}
			if valueDone() {
				return nil
			}
		}
	}
	return nil
}

// Emit renders the spec canonically: indented JSON with a trailing
// newline. Parse(Emit(s)) reproduces s exactly (the round-trip property
// test and fuzz target pin this).
func Emit(spec *Spec) ([]byte, error) {
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("topo: emit spec: %w", err)
	}
	return append(out, '\n'), nil
}
