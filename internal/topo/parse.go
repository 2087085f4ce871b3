package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Parse decodes a Spec from a JSON document, which must be one object.
// Decoding is strict — unknown fields are errors, so a typo'd key never
// silently vanishes. Parse performs syntax and schema decoding only;
// call Spec.Validate for semantic checks.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("topo: empty spec document")
	}
	if trimmed[0] != '{' {
		return nil, fmt.Errorf("topo: spec must be JSON: one object starting with '{'")
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
	return &spec, nil
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
