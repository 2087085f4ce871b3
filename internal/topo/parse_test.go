package topo

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// load reads and parses a testdata spec.
func load(t testing.TB, name string) *Spec {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec
}

func TestParseFeedbackSpec(t *testing.T) {
	spec := load(t, "feedback.json")
	if err := spec.Validate(); err != nil {
		t.Fatalf("feedback spec invalid: %v", err)
	}
	if len(spec.Faults) != 1 || spec.Faults[0].Mode != "stop-all" {
		t.Fatalf("fault script lost in parsing: %+v", spec.Faults)
	}
	cycles := spec.Skeleton().Cycles()
	if len(cycles) == 0 {
		t.Fatal("feedback spec has no cycle")
	}
	for _, cy := range cycles {
		if cy.InitialTokens == 0 {
			t.Fatalf("cycle %v carries no initial tokens", cy.Channels)
		}
	}
}

// TestParseErrors: malformed input must produce an error, with enough
// context to locate the problem, and never a panic.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty spec"},
		{"blank", "  \n\t\n", "empty spec"},
		{"json truncated", `{"name": "x"`, "parse spec"},
		{"json unknown field", `{"name": "x", "tokns": 3}`, "unknown field"},
		{"channel delay_us", `{"name":"x","chans":[{"name":"c","from":"p","to":"q","cap":2,"delay_us":15}]}`, `unknown field "delay_us"`},
		{"json trailing garbage", `{"name": "x"} {"name": "y"}`, "trailing data"},
		{"json wrong type", `{"name": 3}`, "parse spec"},
		{"json repeated key", `{"name":"a","name":"b"}`, `key "name" repeated in the spec document`},
		{"json repeated key, other case", `{"name":"a","tokens":3,"Name":"b"}`, `key "Name" repeated`},
		{"json repeated key in proc", `{"name":"x","procs":[{"name":"p","role":"producer"},{"name":"q","role":"critical","role":"consumer"}]}`, `key "role" repeated in procs[1]`},
		{"json repeated key in nested object", `{"name":"x","detection":{"kind":"mk","m":1,"m":2}}`, `key "m" repeated in detection`},
		{"json repeated key in fault", `{"faults":[{"replica":1},{"replica":2,"replica":1}]}`, `key "replica" repeated in faults[1]`},
		{"json object as key", `{{"a":1,"a":2}}`, "parse spec"},
		// YAML and other non-JSON documents are refused before decoding,
		// whatever their content.
		{"yaml unknown field", "name: x\ntokns: 3\n", "must be JSON"},
		{"yaml tab indent", "name: x\nprocs:\n\t- name: p\n", "must be JSON"},
		{"yaml duplicate key", "name: x\nname: y\n", "must be JSON"},
		{"yaml bad nesting", "name: x\n  stray: 1\n", "must be JSON"},
		{"yaml unclosed flow", "procs: [1, 2\n", "must be JSON"},
		{"yaml unclosed quote", "name: \"x\n", "must be JSON"},
		{"yaml scalar doc", "just a scalar\n", "must be JSON"},
		{"yaml deep flow", strings.Repeat("[", 500) + strings.Repeat("]", 500), "must be JSON"},
		{"yaml document", "---\nname: demo\ntokens: 40\nprocs:\n  - {name: src, role: producer}\n", "must be JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("Parse(%q) = %+v, want error", tc.in, spec)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) error %q does not mention %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestEmitParseRoundTrip is the round-trip property: for hand-written
// and generated specs alike, Parse(Emit(s)) reproduces s exactly.
func TestEmitParseRoundTrip(t *testing.T) {
	specs := []*Spec{load(t, "chain.json"), load(t, "feedback.json")}
	for seed := int64(0); seed < 50; seed++ {
		specs = append(specs, Generate(seed))
	}
	// Empty optional lists, which Emit omits.
	for _, doc := range []string{
		`{"proCs":[{},{},{}],"ChAns":[{},{},{},{}],"deteCtion":{},"fAults":[]}`,
		`{"name":"x","procs":[{"name":"p","replica_jitter_us":[]}],"chans":[],"faults":[]}`,
	} {
		spec, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		data, err := Emit(spec)
		if err != nil {
			t.Fatalf("%s: emit: %v", spec.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", spec.Name, err, data)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("%s: round-trip drift:\nbefore: %+v\nafter:  %+v", spec.Name, spec, back)
		}
	}
}

// FuzzTopoParse: arbitrary input must either parse or error — never
// panic — and anything that parses must survive the Emit/Parse
// round-trip bit-exactly.
func FuzzTopoParse(f *testing.F) {
	for _, name := range []string{"chain.json", "feedback.json"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		"", "{", "}", "null", "[]", "42", `"spec"`, `{"name":"x","tokens":1}`,
		`{"name":"\u0041\u00e9\ud83d\ude00"}`, `{"name":"\u00"}`,
		`{"tokens":1e3}`, `{"tokens":-1}`, `{"tokens":1.5}`, `{"name":null}`,
		`{"procs":[{"name":"p","role":"producer"}]}`, `{"faults":[{"replica":1}]}`,
		`{"detection":{"kind":"mk","m":1,"k":4}}`, `{"name":"x"} {"name":"y"}`,
		`{"name":"a","name":"b"}`, `{"procs":[{"name":"p","seed":1,"seed":2}]}`, `{{"a":1,"a":2}}`,
		`{"proCs":[{},{},{}],"ChAns":[{},{},{},{}],"deteCtion":{},"fAults":[]}`,
		`{"procs":` + strings.Repeat("[", 300) + strings.Repeat("]", 300) + `}`,
		strings.Repeat(`{"a":`, 300), "\xff\xfe",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return // rejecting is fine; panicking is the bug
		}
		out, err := Emit(spec)
		if err != nil {
			t.Fatalf("emit after successful parse: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of emitted spec: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round-trip drift:\nin:     %q\nbefore: %+v\nafter:  %+v", data, spec, back)
		}
	})
}
