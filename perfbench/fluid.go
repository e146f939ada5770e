package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/flowsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// fluidPassSeconds is the nominal cost of one ramp-plus-churn pass on the
// reference machine; it sizes a run's pass count.
const fluidPassSeconds = 8

// fluidSetups is how many times a run repeats the set-up to report a
// steady median.
const fluidSetups = 11

// fluidFabric is scenarios/fluid-100k.json's fabric: 500 clients, 25
// racks of 8 servers, 5 Mb/s edges.
const fluidFabric = `"engine": "fluid",
  "topology": {"kind": "custom", "clients": 500, "racks": 25, "serversPerRack": 8,
               "aggSwitches": 5, "x": 5e6, "k": 5, "coreFactor": 40}`

// rampSpec is a 2 s cut of fluid-100k: long-lived 50 MB-mean flows arrive
// at 5500/s and none finishes, so the resident set only grows and every
// solver repair is an add.
const rampSpec = `{
  "version": 1, "name": "fluid-ramp", "seed": %d, "duration": 2, "horizon": 2,
  ` + fluidFabric + `,
  "workload": [{"generator": "pareto", "params": {"ArrivalRate": 5500, "Clients": 500, "MeanSizeBytes": 5e7}}],
  "outputs": {"series": ["throughput"]}
}`

// churnSpec drives the same fabric with 50 KB-mean flows at 1500/s, a
// rate it drains: arrivals and completions alternate over a resident set
// of a few hundred flows, so the solver adds and removes in equal measure.
const churnSpec = `{
  "version": 1, "name": "fluid-churn", "seed": %d, "duration": 20, "horizon": 25,
  ` + fluidFabric + `,
  "workload": [{"generator": "pareto", "params": {"ArrivalRate": 1500, "Clients": 500, "MeanSizeBytes": 5e4}}]
}`

// fluidCase is one fluid spec with the inputs the rebuilt run needs.
type fluidCase struct {
	name  string
	spec  *scenario.Spec
	tt    *topology.ThreeTier
	flows []workload.FluidFlow
	// sim is the rebuilt run reduced to what the later checks, counters
	// and digests read, so the simulator is not kept through the passes.
	sim fluidSim
}

// fluidSim is what a rebuilt fluid run leaves behind.
type fluidSim struct {
	ok                                    bool
	arrivals, completions, resident, peak int
	fct                                   stats.Online
	digest                                [32]byte // completed flows' ID, start and finish
}

// fluidSetup parses both specs and generates and maps their inputs.
func fluidSetup(seed uint64, tr *tracer) ([]*fluidCase, error) {
	var cases []*fluidCase
	for i, c := range []struct{ name, tmpl string }{{"ramp", rampSpec}, {"churn", churnSpec}} {
		fc := &fluidCase{name: c.name}
		op := int64(i)
		if _, err := tr.do("scenario.Parse", 0, op, func() error {
			var err error
			fc.spec, err = scenario.Parse(strings.NewReader(fmt.Sprintf(c.tmpl, seed)))
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := tr.do("topology.build", 0, op, func() error {
			cfg, err := fc.spec.ClusterConfig()
			if err != nil {
				return err
			}
			fc.tt, err = topology.BuildThreeTier(cfg.Topology)
			return err
		}); err != nil {
			return nil, err
		}
		var reqs []workload.Request
		if _, err := tr.do("workload.generate", 0, op, func() error {
			prog, err := fc.spec.BuildWorkload()
			if err != nil {
				return err
			}
			reqs = prog.Generate(sim.NewRNG(fc.spec.Seed), fc.spec.Duration)
			return nil
		}); err != nil {
			return nil, err
		}
		if _, err := tr.do("workload.map", 0, op, func() error {
			var err error
			fc.flows, err = workload.NewFluidMapper(fc.tt).Map(nil, reqs)
			return err
		}); err != nil {
			return nil, err
		}
		cases = append(cases, fc)
	}
	return cases, nil
}

// rebuild simulates the case's flows directly on internal/flowsim, the
// way scenario.Run's fluid path does, checks the simulator at the
// horizon, and keeps only its reduction: the case's inputs and the
// simulator are released. A failed simulation counts as a failed
// operation.
func (fc *fluidCase) rebuild(oc *outcome, tr *tracer, op int64) {
	oc.attempted++
	var fs *flowsim.Simulator
	if _, err := tr.do("flowsim.build", 0, op, func() error {
		fs = flowsim.New(fc.tt.Graph)
		for i := range fc.flows {
			f := fs.AcquireFlow()
			f.ID = int64(i)
			f.Path = fc.flows[i].Path
			f.Size = fc.flows[i].SizeBits
			if err := fs.AddFlow(fc.flows[i].At, f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		oc.failed++
		oc.detailf("fluid %s: rebuilt run failed: %v", fc.name, err)
		fc.sim = fluidSim{}
		return
	}
	id, _ := tr.do("flowsim.run", 0, op, func() error {
		fs.Run(fc.spec.Horizon)
		return nil
	})
	tr.count(id, "flowsim.arrivals", float64(len(fc.flows)))
	tr.count(id, "flowsim.completions", float64(len(fs.Completed)))
	tr.count(id, "flowsim.peak_active", float64(fs.PeakActive()))
	fc.check(oc, fs)

	s := fluidSim{ok: true, arrivals: len(fc.flows), completions: len(fs.Completed),
		resident: fs.Active(), peak: fs.PeakActive()}
	h := sha256.New()
	for _, f := range fs.Completed {
		s.fct.Add(f.Finish - f.Start)
		fmt.Fprintf(h, "%d %v %v\n", f.ID, f.Start, f.Finish)
	}
	h.Sum(s.digest[:0])
	fc.sim = s
	fc.tt, fc.flows = nil, nil
}

// check verifies the rebuilt run at its horizon: the allocation is
// max-min fair, no completed flow beat its narrowest link, and every
// arrival either completed or is still resident.
func (fc *fluidCase) check(oc *outcome, fs *flowsim.Simulator) {
	links := fc.tt.Graph.Links
	if err := checkMaxMin(fs.Flows(), links); err != nil {
		oc.checkf("fluid %s: at the horizon: %v", fc.name, err)
	}
	for _, f := range fs.Completed {
		ff := fc.flows[f.ID]
		if err := checkFluidFloor(ff.SizeBits, f.Start, f.Finish, ff.Path, links); err != nil {
			oc.checkf("fluid %s: flow %d: %v", fc.name, f.ID, err)
			break
		}
	}
	if n := len(fs.Completed) + fs.Active(); n != len(fc.flows) {
		oc.checkf("fluid %s: %d arrivals but %d completed + %d resident", fc.name, len(fc.flows), len(fs.Completed), fs.Active())
	}
}

// checkResult compares scenario.Run's summary with the rebuilt run.
func (fc *fluidCase) checkResult(oc *outcome, r *scenario.Result) {
	if !fc.sim.ok {
		return
	}
	want := map[string]float64{
		"started":           float64(fc.sim.arrivals),
		"completed":         float64(fc.sim.completions),
		"peak_active_flows": float64(fc.sim.peak),
	}
	if fc.sim.fct.N() > 0 {
		want["mean_fct_s"] = fc.sim.fct.Mean()
	}
	for _, k := range sortedKeys(want) {
		if got, ok := r.Summary[k]; !ok || got != want[k] {
			oc.checkf("fluid %s: scenario.Run reports %s = %v, the rebuilt run %v", fc.name, k, got, want[k])
		}
	}
}

func runFluid(o options, tr *tracer) (*outcome, error) {
	oc := &outcome{layers: map[string]float64{}}
	var cases []*fluidCase
	if err := oc.timeSetups(fluidSetups, tr, func(tr *tracer) error {
		var err error
		cases, err = fluidSetup(o.seed, tr)
		return err
	}); err != nil {
		return nil, err
	}
	// The rebuilt runs are the untimed warm-up and what the checks read.
	for i, fc := range cases {
		fc.rebuild(oc, nil, int64(i))
	}

	var ramps, churns []float64
	digests := map[string]bool{}
	pass := func(op int64) {
		var results [2]*scenario.Result
		var secs [2]float64
		err := oc.timePass(func() error {
			var errs []error
			for i, fc := range cases {
				oc.attempted++
				d, err := timed(func() error {
					_, err := tr.do("scenario.run."+fc.name, 0, op, func() error {
						var err error
						results[i], err = scenario.Run(fc.spec)
						return err
					})
					return err
				})
				if err != nil {
					oc.failed++
					errs = append(errs, fmt.Errorf("%s: %w", fc.name, err))
				}
				secs[i] = d
			}
			return errors.Join(errs...)
		})
		if err != nil {
			oc.detailf("fluid pass %d failed: %v", op, err)
			return
		}
		ramps, churns = append(ramps, secs[0]), append(churns, secs[1])
		h := sha256.New()
		for i, fc := range cases {
			fc.checkResult(oc, results[i])
			writeResult(h, results[i])
		}
		digests[fmt.Sprintf("%x", h.Sum(nil))] = true
	}
	if tr == nil {
		for p := 0; p < passesFor(o.seconds, fluidPassSeconds, 2); p++ {
			pass(int64(p))
		}
	} else {
		folded, err := oc.profileLayers(filepath.Join(o.out, "fluid-cpu.pprof"), func() error { pass(0); return nil })
		if err != nil {
			return nil, err
		}
		// The reductions scenario.Run applies after simulating are its
		// scenario, cluster and stats code.
		oc.layers["scenario.assemble_s"] = folded["scenario"] + folded["cluster"] + folded["stats"]
		// The traced rebuild runs warm, after the pass, on inputs made
		// afresh.
		if cases, err = fluidSetup(o.seed, nil); err != nil {
			return nil, err
		}
		for i, fc := range cases {
			fc.rebuild(oc, tr, int64(i))
		}
	}
	if len(digests) > 1 {
		oc.checkf("fluid: %d passes gave %d different outputs", len(oc.passes), len(digests))
	}

	var arrivals, completions, peak float64
	for _, fc := range cases {
		arrivals += float64(fc.sim.arrivals)
		completions += float64(fc.sim.completions)
		if p := float64(fc.sim.peak); p > peak {
			peak = p
		}
	}
	l := oc.layers
	l["flowsim.arrivals"] = arrivals
	l["flowsim.completions"] = completions
	l["flowsim.peak_active"] = peak
	l["flowsim.run_s"] = tr.total("flowsim.run")
	l["flowsim.us_per_event"] = tr.total("flowsim.run") / (arrivals + completions) * 1e6
	l["workload.generate_s"] = tr.total("workload.generate")
	l["workload.map_s"] = tr.total("workload.map")
	l["fluid.ramp_s"] = median(ramps)
	l["fluid.churn_s"] = median(churns)

	oc.detailf("ramp_s median %.3f %s, churn_s median %.3f %s", median(ramps), fmtSeconds(ramps), median(churns), fmtSeconds(churns))
	for _, fc := range cases {
		oc.detailf("%-5s %d arrivals, %d completions, %d resident at the horizon, peak %d",
			fc.name, fc.sim.arrivals, fc.sim.completions, fc.sim.resident, fc.sim.peak)
	}
	if tr != nil {
		for d := range digests {
			oc.detailf("digest fluid artifacts %s", d)
		}
		h := sha256.New()
		for _, fc := range cases {
			fmt.Fprintf(h, "%s %d %d %d\n", fc.name, fc.sim.arrivals, fc.sim.completions, fc.sim.peak)
			h.Write(fc.sim.digest[:])
		}
		oc.detailf("digest fluid simulated %x", h.Sum(nil))
	}
	return oc, nil
}

// writeResult writes a result's summary and series CSVs — the bytes the
// CLI and scda-serve publish — to w.
func writeResult(w io.Writer, r *scenario.Result) {
	var b bytes.Buffer
	if err := r.WriteSummaryCSV(&b); err != nil {
		fmt.Fprintf(&b, "error %v\n", err)
	}
	for _, g := range r.Groups {
		if err := r.WriteSeriesCSV(&b, g.Kind); err != nil {
			fmt.Fprintf(&b, "error %v\n", err)
		}
	}
	w.Write(b.Bytes())
}
