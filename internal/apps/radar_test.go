package apps

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
)

func TestRadarConfigValidation(t *testing.T) {
	good := DefaultRadarConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Window = 10
	if bad.Validate() == nil {
		t.Error("tiny window should fail")
	}
	bad = good
	bad.Gains = nil
	if bad.Validate() == nil {
		t.Error("mismatched targets/gains should fail")
	}
}

func TestRadarReferenceDetectsTargets(t *testing.T) {
	cfg := DefaultRadarConfig()
	cfg.Intervals = 20
	var toks []kpn.Token
	net, err := RadarNetwork(cfg, func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			toks = append(toks, tok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	if _, err := net.Instantiate(k); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	if len(toks) == 0 {
		t.Fatal("tracker received nothing")
	}
	dets, err := DetectionsFromToken(toks[0])
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, d := range dets {
		for _, target := range cfg.Targets {
			lo := target + cfg.PulseLen - 10
			hi := target + cfg.PulseLen + 10
			if d.Cell >= lo && d.Cell <= hi {
				found[target] = true
			}
		}
	}
	for _, target := range cfg.Targets {
		if !found[target] {
			t.Errorf("planted target at bin %d not detected (dets=%d)", target, len(dets))
		}
	}
}

func TestRadarDuplicatedEquivalentFaultFree(t *testing.T) {
	cfg := DefaultRadarConfig()
	cfg.Intervals = 30
	sys := runRefAndDup(t, func(sink Sink) (*kpn.Network, error) { return RadarNetwork(cfg, sink) },
		ft.BuildConfig{
			ReplicatorCaps: map[string][2]int{"F_in": {4, 6}},
			SelectorCaps:   map[string][2]int{"F_out": {8, 12}},
			SelectorInits:  map[string][2]int{"F_out": {3, 3}},
			SelectorD:      map[string]int64{"F_out": 6},
		})
	if len(sys.Faults) != 0 {
		t.Errorf("fault-free radar run flagged: %v", sys.Faults)
	}
}
