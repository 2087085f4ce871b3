package topo

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
)

// runOnce builds the model's network around a recording sink and runs
// it (un-duplicated) to completion, returning the consumer stream.
func runOnce(t *testing.T, model *Model) []kpn.Token {
	t.Helper()
	var stream []kpn.Token
	net, err := model.Build(func(now des.Time, tok kpn.Token) {
		stream = append(stream, tok)
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	defer k.Shutdown()
	if _, err := net.Instantiate(k); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	return stream
}

// TestCompileChain checks the compiled model's boundary discovery and
// envelope synthesis on the hand-written chain spec.
func TestCompileChain(t *testing.T) {
	spec := load(t, "chain.json")
	model, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if model.InChan != "c_in" || model.OutChan != "c_out" {
		t.Fatalf("boundary channels = %q/%q, want c_in/c_out", model.InChan, model.OutChan)
	}
	if model.PeriodUs() != 40000 || model.Tokens() != 40 {
		t.Fatalf("period/tokens = %d/%d, want 40000/40", model.PeriodUs(), model.Tokens())
	}
	for r := 1; r <= 2; r++ {
		in, out := model.InModel(r), model.OutModel(r)
		if in.Period != 40000 || out.Period != 40000 {
			t.Fatalf("replica %d envelope periods = %d/%d, want 40000", r, in.Period, out.Period)
		}
		// The synthesized envelopes fold in the replica's critical-path
		// latency and the slack, so they must sit strictly above the
		// producer's own jitter.
		if in.Jitter <= 2000 || out.Jitter < in.Jitter {
			t.Fatalf("replica %d envelope jitters %d/%d are not conservative", r, in.Jitter, out.Jitter)
		}
	}
	// Replica 2 carries larger work-model jitters, so its envelope must
	// be strictly looser than replica 1's.
	if model.OutModel(2).Jitter <= model.OutModel(1).Jitter {
		t.Fatalf("replica 2 output jitter %d <= replica 1's %d", model.OutModel(2).Jitter, model.OutModel(1).Jitter)
	}
}

// TestCompileRunDeterministic: two un-duplicated runs of the same model
// produce token-identical streams of the full workload length.
func TestCompileRunDeterministic(t *testing.T) {
	for _, name := range []string{"chain.json", "feedback.json"} {
		spec := load(t, name)
		model, err := Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := runOnce(t, model), runOnce(t, model)
		if int64(len(a)) != spec.Tokens {
			t.Fatalf("%s: consumed %d/%d tokens", name, len(a), spec.Tokens)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: runs consumed %d vs %d tokens", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].Hash() != b[i].Hash() || a[i].Stamp != b[i].Stamp {
				t.Fatalf("%s: token %d differs between runs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// TestCompileExternNeedsBindings: an extern spec without WithExtern
// bindings for every process must fail to compile.
func TestCompileExternNeedsBindings(t *testing.T) {
	spec := load(t, "chain.json")
	for i := range spec.Procs {
		spec.Procs[i].Kind = KindExtern
		spec.Procs[i].BaseUs = 0
		spec.Procs[i].PerKBUs = 0
		spec.Procs[i].ReplicaJitterUs = nil
		spec.Procs[i].PayloadBytes = 0
	}
	spec.Envelopes = &EnvelopeSpec{InJitterUs: []int64{3000}, OutJitterUs: []int64{9000}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("all-extern spec should validate: %v", err)
	}
	if _, err := Compile(spec); err == nil {
		t.Fatal("Compile of an extern spec without bindings should fail")
	}
	if _, err := Compile(spec, WithExtern(map[string]func(int) kpn.Behavior{
		"src": nil, "s1": nil, "s2": nil,
	})); err == nil {
		t.Fatal("Compile with a missing extern binding should fail")
	}
}

// TestValidateRejects walks semantic errors Parse alone cannot catch.
func TestValidateRejects(t *testing.T) {
	mutate := func(f func(*Spec)) *Spec {
		spec := load(t, "chain.json")
		f(spec)
		return spec
	}
	cases := []struct {
		name string
		spec *Spec
	}{
		{"no name", mutate(func(s *Spec) { s.Name = "" })},
		{"no tokens", mutate(func(s *Spec) { s.Tokens = 0 })},
		{"bad replicas", mutate(func(s *Spec) { s.Replicas = 3 })},
		{"two producers", mutate(func(s *Spec) { s.Procs[1].Role = RoleProducer })},
		{"no consumer", mutate(func(s *Spec) { s.Procs[3].Role = RoleCritical })},
		{"unknown role", mutate(func(s *Spec) { s.Procs[1].Role = "observer" })},
		{"unknown kind", mutate(func(s *Spec) { s.Procs[1].Kind = "magic" })},
		{"producer with work model", mutate(func(s *Spec) { s.Procs[0].BaseUs = 10 })},
		{"critical with pacing", mutate(func(s *Spec) { s.Procs[1].PeriodUs = 1000 })},
		{"stage without payload", mutate(func(s *Spec) { s.Procs[1].PayloadBytes = 0; s.Chans[1].TokenBytes = 64 })},
		{"period mismatch", mutate(func(s *Spec) { s.Procs[3].PeriodUs = 50000 })},
		{"dangling channel", mutate(func(s *Spec) { s.Chans[1].To = "ghost" })},
		{"producer bypass", mutate(func(s *Spec) { s.Chans[1].To = "dst" })},
		{"no entry channel", mutate(func(s *Spec) { s.Chans[0].From = "s2" })},
		{"cycle without preload", mutate(func(s *Spec) {
			s.Chans = append(s.Chans, ChanSpec{Name: "fb", From: "s2", To: "s1", Cap: 4})
		})},
		{"unknown fault mode", mutate(func(s *Spec) {
			s.Faults = []FaultSpec{{Replica: 1, AtUs: 10, Mode: "gremlin"}}
		})},
		{"fault replica range", mutate(func(s *Spec) {
			s.Faults = []FaultSpec{{Replica: 3, AtUs: 10, Mode: "stop-all"}}
		})},
		{"burst without window", mutate(func(s *Spec) {
			s.Faults = []FaultSpec{{Replica: 1, AtUs: 10, Mode: "burst"}}
		})},
		{"repair before inject", mutate(func(s *Spec) {
			s.Faults = []FaultSpec{{Replica: 1, AtUs: 100, Mode: "stop-all", RepairAtUs: 50}}
		})},
		{"bad policy", mutate(func(s *Spec) { s.Detection.M = 9; s.Detection.K = 2 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil {
				t.Fatal("Validate accepted a broken spec")
			}
		})
	}
}
