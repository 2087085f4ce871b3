package main

import (
	"math/rand"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
)

// coldApps are the paper apps apps_cold cycles through, one per op in
// turn, so every seed runs the same app mix.
var coldApps = []string{"adpcm", "radar", "mjpeg", "h264"}

// Cold-run workload lengths: the seed draws each op's length from
// [coldMinTokens, coldMaxTokens].
const coldMinTokens, coldMaxTokens = 30, 90

// appsColdBench runs fault-free duplicated apps from a fresh App each
// time, so every stage payload is computed (codec and DSP work) rather
// than served from a warm payload memo.
type appsColdBench struct {
	seed  int64
	cells map[cellKey]*golden // coldMaxTokens-long references; sizing per cell
}

// setupAppsCold sizes every (app, jitter tier) cell and records its
// golden stream at the longest workload length.
func setupAppsCold(seed int64) (bench, error) {
	b := &appsColdBench{seed: seed, cells: map[cellKey]*golden{}}
	for _, name := range coldApps {
		for _, mj := range []bool{false, true} {
			g, err := runGolden(name, mj, coldMaxTokens)
			if err != nil {
				return nil, err
			}
			b.cells[cellKey{name, mj}] = g
		}
	}
	return b, nil
}

func (b *appsColdBench) measure(mc measureConfig) (*measurement, error) {
	return runDES(mc, b.op)
}

// op runs one cold fault-free duplicated app and checks that its
// consumer stream is the golden prefix, nothing is convicted, both
// replicas deliver every token and the counter identities hold.
func (b *appsColdBench) op(i int, tr *tracer) opResult {
	var res opResult
	rng := rand.New(rand.NewSource(opSeed(b.seed, i)))
	name := coldApps[i%len(coldApps)]
	mj := rng.Intn(2) == 0
	n := coldMinTokens + rng.Int63n(coldMaxTokens-coldMinTokens+1)
	g := b.cells[cellKey{name, mj}]

	app, err := exp.AppByName(name, mj, n)
	if err != nil {
		res.fail("app: %v", err)
		return res
	}
	sp := tr.begin("kpn.build")
	stream := make([]tokenID, 0, n)
	net, err := app.Build(func(_ des.Time, tok kpn.Token) {
		stream = append(stream, tokenID{tok.Seq, tok.Hash()})
	})
	tr.end(sp)
	if err != nil {
		res.fail("build: %v", err)
		return res
	}
	k := des.NewKernel()
	tr.attach(k)
	sp = tr.begin("ft.build")
	sys, err := ft.Build(k, net, g.sizing.BuildConfig(app))
	tr.end(sp)
	if err != nil {
		res.fail("ft build: %v", err)
		return res
	}
	sp = tr.begin("des.run")
	k.Run(0)
	k.Shutdown()
	tr.end(sp)

	sp = tr.begin("bench.check")
	defer tr.end(sp)
	res.tokens = int64(len(stream))
	res.counts = systemCounts(sys)
	res.counts.events = k.Dispatched()
	res.requireWork()
	if d := sameStream(stream, g.stream[:min(n, int64(len(g.stream)))]); d != "" {
		res.fail("%s", d)
	}
	if len(sys.Faults) != 0 {
		res.fail("fault-free run convicted %v", sys.Faults[0])
	}
	for r := 1; r <= 2; r++ {
		if w := sys.Selectors[app.OutChan].Writes(r); w != n {
			res.fail("replica R%d wrote %d of %d tokens", r, w, n)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		res.fail("counter invariants: %v", err)
	}
	res.digest = streamDigest(fnvOffset, stream)
	return res
}
