package ft

import (
	"math/rand"
	"testing"
)

// Window reports replica r's current violation count and window
// length for the reason. Only tests read a policy's window.
func (p *MKPolicy) Window(r int, reason Reason) (violations, k int) {
	j, ok := reasonIndex(reason)
	if !ok {
		return 0, 1
	}
	if r >= len(p.win) {
		return 0, p.k
	}
	return p.win[r][j].count, p.k
}

// TestNewPolicy pins spec handling: the zero spec is the inline path,
// binary and mk instantiate, bad parameters error.
func TestNewPolicy(t *testing.T) {
	if p, err := NewPolicy(PolicySpec{}); err != nil || p != nil {
		t.Fatalf("zero spec: got (%v, %v), want (nil, nil)", p, err)
	}
	isMK216 := func(p Policy) bool {
		mk, ok := p.(*MKPolicy)
		if !ok {
			return false
		}
		m, k := mk.MK()
		return m == 2 && k == 16
	}
	p, err := NewPolicy(PolicySpec{Kind: PolicyBinary})
	if _, ok := p.(binaryPolicy); err != nil || !ok {
		t.Fatalf("binary spec: got (%v, %v)", p, err)
	}
	p, err = NewPolicy(PolicySpec{Kind: PolicyMK, M: 2, K: 16})
	if err != nil || !isMK216(p) {
		t.Fatalf("mk spec: got (%v, %v)", p, err)
	}
	p, err = NewPolicy(PolicySpec{Kind: PolicyMK, M: 2, K: 16, Value: true})
	if v, ok := p.(ValuePolicy); err != nil || !ok || !isMK216(v.Timing) {
		t.Fatalf("mk+value spec: got (%v, %v)", p, err)
	}
	for _, bad := range []PolicySpec{
		{Kind: PolicyMK},              // k = 0
		{Kind: PolicyMK, M: 3, K: 3},  // m = k
		{Kind: PolicyMK, M: -1, K: 4}, // negative m
		{Kind: PolicyBinary, M: 1, K: 2},
		{Kind: "weird"},
	} {
		if _, err := NewPolicy(bad); err == nil {
			t.Fatalf("spec %+v: expected error", bad)
		}
	}
}

// TestBinaryPolicyMatchesInline: the explicit binary policy convicts
// exactly when the sample violates — the inline path's behavior.
func TestBinaryPolicyMatchesInline(t *testing.T) {
	p, _ := NewPolicy(PolicySpec{Kind: PolicyBinary})
	if p.Sample(0, ReasonDivergence, false) {
		t.Fatal("binary convicted a clean sample")
	}
	if !p.Sample(0, ReasonDivergence, true) {
		t.Fatal("binary forgave a violation")
	}
}

// TestMK01MatchesBinary: (0,1) is the binary policy through the window
// machinery — every violation convicts, every clean sample passes.
func TestMK01MatchesBinary(t *testing.T) {
	p, err := NewPolicy(PolicySpec{Kind: PolicyMK, M: 0, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := rng.Intn(2) == 0
		r := rng.Intn(2)
		reason := []Reason{ReasonQueueFull, ReasonDivergence, ReasonConsumerStall}[rng.Intn(3)]
		if got := p.Sample(r, reason, v); got != v {
			t.Fatalf("sample %d: mk(0,1) returned %v for violation %v", i, got, v)
		}
	}
}

// naiveMK is the O(n·k) reference: convict iff more than m of the last
// k samples (for that replica and reason) were violations.
type naiveMK struct {
	m, k    int
	history map[[2]any][]bool
}

func newNaiveMK(m, k int) *naiveMK {
	return &naiveMK{m: m, k: k, history: map[[2]any][]bool{}}
}

func (n *naiveMK) sample(r int, reason Reason, v bool) bool {
	key := [2]any{r, reason}
	h := append(n.history[key], v)
	n.history[key] = h
	count := 0
	start := len(h) - n.k
	if start < 0 {
		start = 0
	}
	for _, b := range h[start:] {
		if b {
			count++
		}
	}
	return count > n.m
}

func (n *naiveMK) reset(r int) {
	for key := range n.history {
		if key[0] == r {
			delete(n.history, key)
		}
	}
}

// TestMKPolicyAgainstNaive drives random sample/reset sequences through
// the ring-bitset window and the naive reference in lockstep.
func TestMKPolicyAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reasons := []Reason{ReasonQueueFull, ReasonDivergence, ReasonConsumerStall}
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(100)
		m := rng.Intn(k)
		p, err := NewMKPolicy(m, k)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNaiveMK(m, k)
		for step := 0; step < 500; step++ {
			if rng.Intn(50) == 0 {
				r := rng.Intn(2)
				p.Reset(r)
				ref.reset(r)
				continue
			}
			r := rng.Intn(2)
			reason := reasons[rng.Intn(len(reasons))]
			v := rng.Intn(3) == 0
			got := p.Sample(r, reason, v)
			want := ref.sample(r, reason, v)
			if got != want {
				t.Fatalf("trial %d (m=%d,k=%d) step %d: policy %v, naive %v", trial, m, k, step, got, want)
			}
		}
	}
}

// TestMKWindowIsPerReason: violations for one reason must not consume
// another reason's budget.
func TestMKWindowIsPerReason(t *testing.T) {
	p, _ := NewMKPolicy(1, 8)
	if p.Sample(0, ReasonDivergence, true) {
		t.Fatal("first divergence violation convicted under m=1")
	}
	// A queue-full violation on the same replica has its own window.
	if p.Sample(0, ReasonQueueFull, true) {
		t.Fatal("first queue-full violation convicted under m=1")
	}
	if !p.Sample(0, ReasonDivergence, true) {
		t.Fatal("second divergence violation not convicted under m=1")
	}
}

// TestValuePolicyComposition: value samples convict immediately, timing
// samples delegate to the wrapped policy.
func TestValuePolicyComposition(t *testing.T) {
	inner, _ := NewMKPolicy(2, 8)
	p := ValuePolicy{Timing: inner}
	if !p.Sample(1, ReasonValueDivergence, true) {
		t.Fatal("value violation forgiven")
	}
	if p.Sample(1, ReasonDivergence, true) {
		t.Fatal("first timing violation convicted under m=2")
	}
	if v, k := inner.Window(1, ReasonDivergence); v != 1 || k != 8 {
		t.Fatalf("window = %d/%d, want 1/8", v, k)
	}
}

// FuzzPolicyWindow fuzzes the (m,k) sliding window against the naive
// reference. Each input byte encodes one step: bit 0 = violation,
// bit 1 = replica, bits 2-3 = reason index (3 = reset instead of
// sample). Invariant: the ring-bitset window convicts iff more than m
// of the last k samples were violations.
func FuzzPolicyWindow(f *testing.F) {
	f.Add(uint8(2), uint8(8), []byte{0x01, 0x05, 0x09, 0x01, 0x0c, 0x01})
	f.Add(uint8(0), uint8(1), []byte{0x00, 0x01, 0x02, 0x03})
	f.Add(uint8(5), uint8(64), []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, mRaw, kRaw uint8, steps []byte) {
		k := 1 + int(kRaw)%128
		m := int(mRaw) % k
		p, err := NewMKPolicy(m, k)
		if err != nil {
			t.Fatalf("NewMKPolicy(%d,%d): %v", m, k, err)
		}
		ref := newNaiveMK(m, k)
		reasons := []Reason{ReasonQueueFull, ReasonDivergence, ReasonConsumerStall}
		for i, b := range steps {
			v := b&1 != 0
			r := int(b>>1) & 1
			ri := int(b>>2) & 3
			if ri == 3 {
				p.Reset(r)
				ref.reset(r)
				continue
			}
			reason := reasons[ri]
			got := p.Sample(r, reason, v)
			want := ref.sample(r, reason, v)
			if got != want {
				t.Fatalf("step %d (m=%d,k=%d): policy %v, naive %v", i, m, k, got, want)
			}
			if gotV, gotK := p.Window(r, reason); gotK != k || gotV < 0 || gotV > k {
				t.Fatalf("step %d: window %d/%d out of range", i, gotV, gotK)
			}
		}
	})
}
