// Command ftpntopo dumps process-network topologies as Graphviz DOT or
// plain summaries — the paper's figures, any built-in app, and
// declarative internal/topo specs (hand-written or generated):
//
//	ftpntopo -fig 1            # Figure 1: reference + duplicated network
//	ftpntopo -fig 2            # Figure 2: MJPEG decoder and ADPCM app
//	ftpntopo -app h264 -dup    # any app, duplicated topology
//	ftpntopo -load net.json    # a JSON topology spec
//	ftpntopo -load net.json -emit   # ... re-emitted as canonical JSON
//	ftpntopo -gen 42 -dup      # a generated topology, duplicated
package main

import (
	"flag"
	"fmt"
	"os"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/topo"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "paper figure to dump (1 or 2); 0 selects -app")
		appName = flag.String("app", "mjpeg", "application topology: mjpeg, adpcm, h264 or radar")
		load    = flag.String("load", "", "load a JSON topology spec instead of a built-in app")
		gen     = flag.Int64("gen", -1, "generate the seeded random topology instead of a built-in app (-1 = off)")
		dup     = flag.Bool("dup", false, "dump the duplicated (fault-tolerant) topology")
		summary = flag.Bool("summary", false, "plain summary instead of DOT")
		emitJS  = flag.Bool("emit", false, "with -load/-gen: dump the canonical JSON spec instead of DOT")
	)
	flag.Parse()
	if err := run(*fig, *appName, *load, *gen, *dup, *summary, *emitJS); err != nil {
		fmt.Fprintf(os.Stderr, "ftpntopo: %v\n", err)
		os.Exit(1)
	}
}

func run(fig int, appName, load string, gen int64, dup, summary, emitJS bool) error {
	if load != "" || gen >= 0 {
		return runSpec(load, gen, dup, summary, emitJS)
	}
	switch fig {
	case 1:
		// Figure 1 shows a generic producer -> critical -> consumer
		// network and its duplicated counterpart.
		app, err := exp.AppByName("adpcm", false, 1)
		if err != nil {
			return err
		}
		net, err := app.Build(nil)
		if err != nil {
			return err
		}
		net.Name = "reference"
		fmt.Println("// Figure 1 (top): reference process network")
		emit(net, summary)
		fmt.Println("// Figure 1 (bottom): duplicated process network")
		return emitDup(net, summary)
	case 2:
		for _, n := range []string{"mjpeg", "adpcm"} {
			app, err := exp.AppByName(n, false, 1)
			if err != nil {
				return err
			}
			net, err := app.Build(nil)
			if err != nil {
				return err
			}
			fmt.Printf("// Figure 2: %s\n", app.Name)
			emit(net, summary)
		}
		return nil
	case 0:
		app, err := exp.AppByName(appName, false, 1)
		if err != nil {
			return err
		}
		net, err := app.Build(nil)
		if err != nil {
			return err
		}
		if dup {
			return emitDup(net, summary)
		}
		emit(net, summary)
		return nil
	default:
		return fmt.Errorf("unknown figure %d", fig)
	}
}

// runSpec dumps a declarative topo.Spec, loaded from a file or freshly
// generated from a seed.
func runSpec(load string, gen int64, dup, summary, emitJS bool) error {
	if load != "" && gen >= 0 {
		return fmt.Errorf("-load and -gen are mutually exclusive")
	}
	var spec *topo.Spec
	if load != "" {
		data, err := os.ReadFile(load)
		if err != nil {
			return err
		}
		spec, err = topo.Parse(data)
		if err != nil {
			return err
		}
		if err := spec.Validate(); err != nil {
			return err
		}
	} else {
		spec = topo.Generate(gen)
	}
	if emitJS {
		out, err := topo.Emit(spec)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if dup {
		// The duplicated dump needs real behaviors (the ft transform
		// wraps the factories), so compile the spec into a model first.
		model, err := topo.Compile(spec)
		if err != nil {
			return err
		}
		net, err := model.Build(nil)
		if err != nil {
			return err
		}
		return emitDup(net, summary)
	}
	// The reference dump is purely structural: the behavior-less
	// skeleton carries the full graph, so it also covers extern specs
	// that cannot compile without bindings.
	emit(spec.Skeleton(), summary)
	return nil
}

func emit(net *kpn.Network, summary bool) {
	if summary {
		fmt.Println(net.Summary())
		return
	}
	fmt.Print(net.DOT())
}

func emitDup(net *kpn.Network, summary bool) error {
	k := des.NewKernel()
	sys, err := ft.Build(k, net, ft.BuildConfig{})
	if err != nil {
		return err
	}
	defer k.Shutdown()
	if summary {
		fmt.Print(sys.DOT()) // the DOT form is the canonical dump
		return nil
	}
	fmt.Print(sys.DOT())
	return nil
}
