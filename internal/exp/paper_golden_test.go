package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// paperGolden pins the rendered paper outputs that no frozen JSON
// report covers: Table 2 and Table 3 blocks, the fill profile and the
// Chrome-trace export. All four are pure functions of the simulation,
// except Table 2's host-time ns/op figures, which the test zeroes.
const paperGolden = "testdata/paper_outputs.golden"

// paperOutputs renders the four pinned outputs at small sizes.
func paperOutputs(t *testing.T) string {
	t.Helper()
	var b strings.Builder

	row, err := Table3ADPCMOnly(4, 1000, 140, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== FormatTable3(Table3ADPCMOnly(runs 4, poll 1000us, 140 tokens)) ==\n%s", FormatTable3([]Table3Row{row}))

	app := ADPCMApp(false, 120)
	samples, sizing, err := FillProfile(app, 1, app.PeriodUs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== FormatFillProfile(adpcm, 120 tokens, replica 1) ==\n%s", FormatFillProfile(samples, sizing, app, 1))

	res, err := Table2(ADPCMApp(false, 120), 4, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	res.SelOpNs, res.RepOpNs = 0, 0
	fmt.Fprintf(&b, "== Table2(adpcm, 120 tokens, 4 runs).String(), ns/op zeroed ==\n%s", res.String())

	var trace bytes.Buffer
	if err := WriteChromeTrace(ADPCMApp(false, 100), &trace); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== WriteChromeTrace(adpcm, 100 tokens) ==\n%d bytes, sha256 %x\n", trace.Len(), sha256.Sum256(trace.Bytes()))
	return b.String()
}

// TestPaperOutputsGolden requires the rendered paper outputs to equal
// the committed fixture byte for byte.
func TestPaperOutputsGolden(t *testing.T) {
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := paperOutputs(t); got != string(want) {
		t.Fatalf("paper outputs differ from %s\n--- got:\n%s\n--- want:\n%s", paperGolden, got, want)
	}
}
