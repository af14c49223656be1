package expt

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/sa"
	"repro/internal/ttp"
)

// CruiseRow is the §6 cruise-controller comparison (experiment E6).
type CruiseRow struct {
	Name        string
	Response    model.Time
	Schedulable bool
	STotal      int
}

// Cruise runs SF, OS, OR, SAS and SAR on the cruise-controller model.
// It is a single-system experiment, so opts.Workers parallelizes inside
// the algorithms (optimizer neighbourhoods, annealing chains) rather
// than across cells; one Solver session serves all five algorithms.
func Cruise(ctx context.Context, opts Options) ([]CruiseRow, error) {
	opts.defaults()
	sys, err := cruise.System()
	if err != nil {
		return nil, err
	}
	sv, err := cellSolver(sys.Application, sys.Architecture, &opts, opts.Workers)
	if err != nil {
		return nil, err
	}
	var rows []CruiseRow
	add := func(name string, r *opt.Result) {
		rows = append(rows, CruiseRow{
			Name: name, Response: r.Analysis.GraphResp[0],
			Schedulable: r.Schedulable(), STotal: r.STotal(),
		})
	}
	sf, err := sv.Straightforward(ctx)
	if err != nil {
		return nil, err
	}
	add("SF", sf)
	orres, err := sv.OptimizeResources(ctx)
	if err != nil {
		return nil, err
	}
	add("OS", orres.OS.Best)
	add("OR", orres.Best)
	sas, err := bestSA(ctx, sv, orres.OS.Best, sa.MinimizeDelta, 1, opts.Workers)
	if err != nil {
		return nil, err
	}
	add("SAS", sas)
	sar, err := bestSA(ctx, sv, orres.Best, sa.MinimizeBuffers, 1, opts.Workers)
	if err != nil {
		return nil, err
	}
	add("SAR", sar)
	return rows, nil
}

// PrintCruise renders the cruise-controller table with the published
// reference points.
func PrintCruise(w io.Writer, rows []CruiseRow) {
	fmt.Fprintln(w, "Cruise controller (40 processes, 2 TT + 2 ET nodes, D = 250 ms)")
	fmt.Fprintln(w, "paper: SF 320 ms (miss), OS/SAS 185 ms (meet), buffers: OS 1020 B, OR -24%, SAR -30%")
	fmt.Fprintf(w, "%6s %12s %12s %12s\n", "alg", "resp [ms]", "meets D?", "s_total [B]")
	var osBuf int
	for _, r := range rows {
		if r.Name == "OS" {
			osBuf = r.STotal
		}
	}
	for _, r := range rows {
		extra := ""
		if osBuf > 0 && (r.Name == "OR" || r.Name == "SAR") && r.Schedulable {
			extra = fmt.Sprintf("  (%+.0f%% vs OS)", 100*float64(r.STotal-osBuf)/float64(osBuf))
		}
		fmt.Fprintf(w, "%6s %12d %12v %12d%s\n", r.Name, r.Response, r.Schedulable, r.STotal, extra)
	}
}

// Fig4Row is one panel of the Fig. 4 worked example (experiment E1).
type Fig4Row struct {
	Panel       string
	SGFirst     bool
	P2High      bool
	Response    model.Time
	Delta       model.Time
	Schedulable bool
}

// Figure4 evaluates the four configurations of the paper's Fig. 4
// scheduling example (panel d combines the slot swap of (b) with the
// priority swap of (c); see EXPERIMENTS.md E1 for the calibration
// notes).
func Figure4() ([]Fig4Row, error) {
	app, arch, p, m, err := fig4System()
	if err != nil {
		return nil, err
	}
	panels := []struct {
		name            string
		sgFirst, p2High bool
	}{
		{"a", true, false},
		{"b", false, false},
		{"c", true, true},
		{"d", false, true},
	}
	var rows []Fig4Row
	for _, panel := range panels {
		cfg := fig4Config(app, arch, panel.sgFirst, panel.p2High, p, m)
		if err := cfg.Normalize(app); err != nil {
			return nil, err
		}
		a, err := core.Analyze(app, arch, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			Panel: panel.name, SGFirst: panel.sgFirst, P2High: panel.p2High,
			Response: a.GraphResp[0], Delta: a.Delta, Schedulable: a.Schedulable,
		})
	}
	return rows, nil
}

// PrintFigure4 renders the panels.
func PrintFigure4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Fig 4 - scheduling example (T=240, D=200; paper panel a misses, changes to")
	fmt.Fprintln(w, "the slot order (b) or the priorities (c) recover the deadline; under full")
	fmt.Fprintln(w, "worst-case jitter propagation both changes together (d) are needed)")
	fmt.Fprintf(w, "%6s %10s %10s %10s %8s %8s\n", "panel", "S_G first", "P2 high", "R_G1", "delta", "meets D")
	for _, r := range rows {
		fmt.Fprintf(w, "%6s %10v %10v %10d %8d %8v\n", r.Panel, r.SGFirst, r.P2High, r.Response, r.Delta, r.Schedulable)
	}
}

// fig4System builds the Fig. 4 application (G1 of Fig. 1 on the
// two-cluster platform).
func fig4System() (*model.Application, *model.Architecture, [4]model.ProcID, [3]model.EdgeID, error) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		Name: "fig4", TTNodes: 1, ETNodes: 1, TickPerByte: 1, CANBitTime: 1, GatewayCost: 5,
	})
	if err != nil {
		return nil, nil, [4]model.ProcID{}, [3]model.EdgeID{}, err
	}
	app := model.NewApplication("fig4")
	g := app.AddGraph("G1", 240, 200)
	n1 := arch.TTNodes()[0]
	n2 := arch.ETNodes()[0]
	p1 := app.AddProcess(g, "P1", 30, n1)
	p2 := app.AddProcess(g, "P2", 20, n2)
	p3 := app.AddProcess(g, "P3", 20, n2)
	p4 := app.AddProcess(g, "P4", 30, n1)
	m1 := app.AddEdge("m1", p1, p2, 8)
	m2 := app.AddEdge("m2", p1, p3, 8)
	m3 := app.AddEdge("m3", p2, p4, 4)
	for _, e := range []model.EdgeID{m1, m2, m3} {
		app.Edges[e].CANTime = 10
	}
	if err := app.Finalize(arch); err != nil {
		return nil, nil, [4]model.ProcID{}, [3]model.EdgeID{}, err
	}
	return app, arch, [4]model.ProcID{p1, p2, p3, p4}, [3]model.EdgeID{m1, m2, m3}, nil
}

func fig4Config(app *model.Application, arch *model.Architecture, sgFirst, p2High bool,
	p [4]model.ProcID, m [3]model.EdgeID) *core.Config {
	n1 := arch.TTNodes()[0]
	var slots []ttp.Slot
	if sgFirst {
		slots = []ttp.Slot{{Node: arch.Gateway, Length: 20}, {Node: n1, Length: 20}}
	} else {
		slots = []ttp.Slot{{Node: n1, Length: 20}, {Node: arch.Gateway, Length: 20}}
	}
	cfg := &core.Config{
		Round:        ttp.Round{Slots: slots},
		ProcPriority: map[model.ProcID]int{},
		MsgPriority:  map[model.EdgeID]int{m[0]: 1, m[1]: 2, m[2]: 3},
	}
	if p2High {
		cfg.ProcPriority[p[1]] = 1
		cfg.ProcPriority[p[2]] = 2
	} else {
		cfg.ProcPriority[p[1]] = 2
		cfg.ProcPriority[p[2]] = 1
	}
	return cfg
}
