package exp

import (
	"fmt"
	"strings"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
)

// FillSample is one periodic observation of the duplicated system's
// queue levels.
type FillSample struct {
	At       des.Time
	RepFill  [2]int
	SelFill  int
	SelSpace [2]int64
}

// FillProfile runs the duplicated application with a stop fault on the
// given replica and samples queue fills every samplePeriod ticks — the
// raw material of a fill-over-time figure: the faulty replica's
// replicator queue climbing to its capacity, the selector fill dipping
// while the healthy replica takes over, and the faulty interface's
// space counter running away after the fault.
func FillProfile(app App, replica int, samplePeriod des.Time) ([]FillSample, Sizing, error) {
	sizing, err := SizingFor(app)
	if err != nil {
		return nil, sizing, err
	}
	injectAt := des.Time(app.Tokens/2) * app.PeriodUs
	var samples []FillSample
	_, err = runDuplicated(app, sizing.BuildConfig(app), nil, des.Time(app.Tokens)*app.PeriodUs*2, func(sys *ft.System) error {
		sys.InjectFault(replica, injectAt, fault.StopAll, 0)
		k := sys.K
		rep := sys.Replicators[app.InChan]
		sel := sys.Selectors[app.OutChan]
		k.Every(samplePeriod, func() bool {
			samples = append(samples, FillSample{
				At:       k.Now(),
				RepFill:  [2]int{rep.Fill(1), rep.Fill(2)},
				SelFill:  sel.Fill(),
				SelSpace: [2]int64{sel.Space(1), sel.Space(2)},
			})
			return !k.Stopped()
		})
		return nil
	})
	if err != nil {
		return nil, sizing, err
	}
	return samples, sizing, nil
}

// FormatFillProfile renders the profile as an ASCII chart of the faulty
// replica's replicator-queue fill around the injection instant.
func FormatFillProfile(samples []FillSample, sizing Sizing, app App, replica int) string {
	var b strings.Builder
	injectAt := des.Time(app.Tokens/2) * app.PeriodUs
	fmt.Fprintf(&b, "Replicator queue fill of replica %d (%s); fault at t=%s ms, capacity %d\n",
		replica, app.Name, usToMS(injectAt), sizing.RepCaps[replica-1])
	lo := injectAt - 10*app.PeriodUs
	hi := injectAt + des.Time(sizing.RepBoundUs) + 5*app.PeriodUs
	for _, s := range samples {
		if s.At < lo || s.At > hi {
			continue
		}
		fill := s.RepFill[replica-1]
		marker := " "
		if s.At >= injectAt && s.At < injectAt+app.PeriodUs {
			marker = "<- fault injected"
		}
		fmt.Fprintf(&b, "  t=%8s ms |%-*s| %d %s\n",
			usToMS(s.At), sizing.RepCaps[replica-1], strings.Repeat("#", fill), fill, marker)
	}
	return b.String()
}
