package exp

import (
	"fmt"
	"io"

	"ftpn/internal/des"
)

// ReportConfig parameterizes WriteReport.
type ReportConfig struct {
	Runs     int
	Tokens   int64    // workload override, 0 = defaults
	PollUs   des.Time // distance-function poll period
	Parallel int      // worker goroutines for independent runs, 0 = GOMAXPROCS
}

// WriteReport regenerates the complete evaluation — Table 1, all Table 2
// blocks, Table 3 and a fill profile — as one plain-text report, the
// programmatic equivalent of running every ftpnsim experiment.
func WriteReport(w io.Writer, cfg ReportConfig) error {
	if cfg.Runs < 1 {
		return fmt.Errorf("exp: report needs at least one run")
	}
	if cfg.PollUs <= 0 {
		cfg.PollUs = 1000
	}
	var opts []Option
	if cfg.Parallel > 0 {
		opts = append(opts, WithParallelism(cfg.Parallel))
	}
	fmt.Fprintln(w, "ftpn evaluation report")
	fmt.Fprintln(w, "======================")
	fmt.Fprintln(w)
	fmt.Fprint(w, FormatTable1(Table1()))
	fmt.Fprintln(w)

	for _, name := range []string{"mjpeg", "adpcm", "h264"} {
		app, err := AppByName(name, false, cfg.Tokens)
		if err != nil {
			return err
		}
		res, err := Table2(app, cfg.Runs, opts...)
		if err != nil {
			return fmt.Errorf("exp: report table 2 %s: %w", name, err)
		}
		fmt.Fprintln(w, res.String())
	}

	rows, err := Table3(cfg.Runs, cfg.PollUs, cfg.Tokens, opts...)
	if err != nil {
		return fmt.Errorf("exp: report table 3: %w", err)
	}
	fmt.Fprint(w, FormatTable3(rows))
	fmt.Fprintln(w)

	app, err := AppByName("adpcm", false, cfg.Tokens)
	if err != nil {
		return err
	}
	samples, sizing, err := FillProfile(app, 1, app.PeriodUs)
	if err != nil {
		return fmt.Errorf("exp: report fill profile: %w", err)
	}
	fmt.Fprint(w, FormatFillProfile(samples, sizing, app, 1))
	return nil
}
