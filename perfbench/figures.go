package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// figurePassSeconds is the nominal cost of one serial quick-scale figure
// pass on the reference machine; it sizes a run's pass count.
const figurePassSeconds = 10.5

// figureSetups is how many times a run repeats the set-up, which takes a
// few milliseconds, to report a steady median. Timed in batches of ten
// set-ups without a collection between them, the batch means moved
// between 4 and 7 ms within one run; timed singly, each after a forced
// collection, all but the first stayed within a millisecond of 7 ms.
const figureSetups = 41

// figScenario is one of the five two-system runs behind figs. 7-18, built
// here from the same public parts experiments uses: the fig. 6 cluster
// config with the paper's X and K, and the scaled workload generator.
type figScenario struct {
	name string
	x, k float64
	gen  workload.Generator
	// cdfFig is the figure whose summary carries this scenario's mean FCT
	// per system.
	cdfFig string
}

func figScenarios(sc experiments.Scale) []figScenario {
	video := func(ctl bool) workload.VideoSpec {
		v := workload.DefaultVideoSpec()
		v.ControlFlows = ctl
		v.ArrivalRate *= sc.ArrivalScale
		return v
	}
	dc := workload.DefaultDCSpec()
	dc.ArrivalRate *= sc.ArrivalScale
	pareto := workload.DefaultParetoSpec()
	pareto.ArrivalRate *= sc.ArrivalScale
	return []figScenario{
		{"video", 500e6, 3, video(true), "fig08"},
		{"videonoctl", 500e6, 3, video(false), "fig11"},
		{"dc-k1", 500e6, 1, dc, "fig14"},
		{"dc-k3", 500e6, 3, dc, "fig16"},
		{"pareto", 200e6, 3, pareto, "fig18"},
	}
}

var figSystems = []cluster.System{cluster.SCDA, cluster.RandTCP}

// figRun is one (scenario, system) cluster run of the rebuilt suite.
// Once run, it keeps only the counts and the mean FCT the later checks,
// counters and digests read; the cluster and its records are released.
type figRun struct {
	scen int
	sys  cluster.System
	reqs []workload.Request
	c    *cluster.Cluster

	events                 uint64
	hops, delivered, drops int64
	completed              int
	violations             int64
	meanFCT                float64
}

// figSetup generates every scenario's requests and builds the ten
// clusters of one rebuilt pass.
func figSetup(sc experiments.Scale, tr *tracer) ([]*figRun, error) {
	var runs []*figRun
	for i, s := range figScenarios(sc) {
		var reqs []workload.Request
		tr.do("workload.generate", 0, int64(i), func() error {
			reqs = s.gen.Generate(sim.NewRNG(sc.Seed), sc.Duration)
			return nil
		})
		for _, sys := range figSystems {
			cfg := cluster.DefaultConfig(sys)
			cfg.Topology.X = s.x * sc.BWScale
			cfg.Topology.K = s.k
			cfg.Seed = sc.Seed
			r := &figRun{scen: i, sys: sys, reqs: reqs}
			_, err := tr.do("cluster.build", 0, int64(len(runs)), func() error {
				var err error
				r.c, err = cluster.New(cfg)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("building %s/%v: %w", s.name, sys, err)
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// runFigures times serial passes of the figure suite. The suite's inputs
// are fixed by experiments.QuickScale, as a user of the reproduction runs
// it, and the figures are requested in paper order, so the workload seed
// changes nothing. Seeding the scale moved the video scenario between
// 10.1 M and 17.5 M events, and permuting the request order moved the
// peak resident set between 23 and 36 MB, since it decides how full the
// scenario cache is when the video runs simulate.
func runFigures(o options, tr *tracer) (*outcome, error) {
	oc := &outcome{layers: map[string]float64{}}
	sc := experiments.QuickScale()
	scens := figScenarios(sc)
	ids := experiments.FigureIDs()

	var runs []*figRun
	if err := oc.timeSetups(figureSetups, tr, func(tr *tracer) error {
		var err error
		runs, err = figSetup(sc, tr)
		return err
	}); err != nil {
		return nil, err
	}

	// The rebuilt cluster runs are the untimed warm-up and the source of
	// the per-flow checks and simulated counters.
	rebuildFigures(oc, sc, runs, nil)
	pool := runner.Serial()
	// Each pass's figures are checked and digested as soon as it ends,
	// so no pass's output is held through the next.
	var digests []string
	pass := func(op int64) {
		experiments.ClearScenarioCache()
		var res []experiments.FigureResult
		oc.attempted += int64(len(ids))
		err := oc.timePass(func() error {
			_, err := tr.do("experiments.RunFigures", 0, op, func() error {
				var err error
				res, err = experiments.RunFigures(ids, sc, pool)
				return err
			})
			return err
		})
		if err != nil {
			oc.failed += int64(len(ids))
			oc.detailf("figures pass %d failed: %v", op, err)
			return
		}
		checkFigureResults(oc, scens, res)
		checkRebuiltMeans(oc, scens, runs, res)
		digests = append(digests, figureDigest(res))
	}
	if tr == nil {
		for p := 0; p < passesFor(o.seconds, figurePassSeconds, 2); p++ {
			pass(int64(p))
		}
	} else {
		prof := filepath.Join(o.out, "figures-cpu.pprof")
		if _, err := oc.profileLayers(prof, func() error { pass(0); return nil }); err != nil {
			return nil, err
		}
		// With the scenario cache warm, a second pass only reduces.
		if _, err := tr.do("experiments.reduce", 0, 1, func() error {
			_, err := experiments.RunFigures(ids, sc, pool)
			return err
		}); err != nil {
			return nil, err
		}
		// The traced rebuild runs warm, after the pass.
		var err error
		if runs, err = figSetup(sc, nil); err != nil {
			return nil, err
		}
		rebuildFigures(oc, sc, runs, tr)
	}

	for _, d := range digests {
		if d != digests[0] {
			oc.checkf("figures: passes gave different outputs")
			break
		}
	}

	var events, hops, delivered, drops, completed, violations float64
	for _, r := range runs {
		events += float64(r.events)
		hops += float64(r.hops)
		delivered += float64(r.delivered)
		drops += float64(r.drops)
		completed += float64(r.completed)
		violations += float64(r.violations)
	}
	run := tr.total("cluster.run.scda") + tr.total("cluster.run.randtcp")
	l := oc.layers
	l["sim.events"] = events
	l["sim.ns_per_event"] = run / events * 1e9
	l["netsim.packet_hops"] = hops
	l["netsim.delivered"] = delivered
	l["netsim.drops"] = drops
	l["cluster.run_s.scda"] = tr.total("cluster.run.scda")
	l["cluster.run_s.randtcp"] = tr.total("cluster.run.randtcp")
	l["workload.generate_s"] = tr.total("workload.generate")
	l["cluster.build_s"] = tr.total("cluster.build")
	l["experiments.reduce_s"] = tr.total("experiments.reduce")
	l["cluster.completed"] = completed
	l["ratealloc.violations"] = violations
	l["cluster.mean_fct_s.scda"] = meanFCTOver(runs, cluster.SCDA)
	l["cluster.mean_fct_s.randtcp"] = meanFCTOver(runs, cluster.RandTCP)

	oc.detailf("pass CPU seconds median %.3f over %d passes; %.0f events, %.0f packet-hops, %.0f drops in the ten cluster runs",
		median(oc.passCPU), len(oc.passCPU), events, hops, drops)
	for i, s := range scens {
		oc.detailf("%-10s mean FCT SCDA %.4f s, RandTCP %.4f s", s.name, runs[2*i].meanFCT, runs[2*i+1].meanFCT)
	}
	if tr != nil && len(digests) > 0 {
		oc.detailf("digest figures artifacts %s", digests[0])
		oc.detailf("digest figures simulated %s", simDigest(runs))
	}
	return oc, nil
}

// rebuildFigures runs every rebuilt cluster run to the drain horizon,
// counting each as an attempted operation, checks it and reduces it to
// its counts.
func rebuildFigures(oc *outcome, sc experiments.Scale, runs []*figRun, tr *tracer) {
	scens := figScenarios(sc)
	for i, r := range runs {
		label := "cluster.run." + strings.ToLower(r.sys.String())
		var m *cluster.Metrics
		id, _ := tr.do(label, 0, int64(i), func() error {
			m = r.c.RunWorkload(r.reqs, sc.Duration*3)
			return nil
		})
		oc.attempted++
		r.events, r.hops = r.c.Sim.Processed, packetHops(r.c)
		r.delivered, r.drops = r.c.Net.Delivered, r.c.Net.TotalDrops
		r.completed, r.violations = m.Completed, m.Violations
		r.meanFCT = m.MeanFCT()
		tr.count(id, "sim.events", float64(r.events))
		tr.count(id, "netsim.packet_hops", float64(r.hops))
		tr.count(id, "netsim.delivered", float64(r.delivered))
		tr.count(id, "netsim.drops", float64(r.drops))
		checkFigureRun(oc, scens[r.scen].name, r, m)
		r.c, r.reqs = nil, nil
	}
}

// packetHops sums LinkStats.Packets over every link of the cluster.
func packetHops(c *cluster.Cluster) int64 {
	var n int64
	for i := range c.TT.Graph.Links {
		n += c.Net.Stats(topology.LinkID(i)).Packets
	}
	return n
}

// meanFCTOver averages the per-scenario mean FCT of one system.
func meanFCTOver(runs []*figRun, sys cluster.System) float64 {
	sum, n := 0.0, 0
	for _, r := range runs {
		if r.sys == sys {
			sum += r.meanFCT
			n++
		}
	}
	return sum / float64(n)
}

// checkFigureRun checks a rebuilt run against properties every run must
// have: each generated request completes by the drain horizon, and no
// flow finishes faster than its size over the fabric's fastest link.
func checkFigureRun(oc *outcome, scen string, r *figRun, m *cluster.Metrics) {
	name := fmt.Sprintf("figures %s/%v", scen, r.sys)
	if m.Started != len(r.reqs) || m.Completed != len(r.reqs) {
		oc.checkf("%s: %d requests generated, %d started, %d completed by the horizon",
			name, len(r.reqs), m.Started, m.Completed)
	}
	fastest := 0.0
	for _, l := range r.c.TT.Graph.Links {
		fastest = math.Max(fastest, l.Capacity)
	}
	if err := checkFlowFloor(m.Records, fastest); err != nil {
		oc.checkf("%s: %v", name, err)
	}
}

// checkFlowFloor rejects a completed flow faster than its size over the
// given link capacity (bits/s).
func checkFlowFloor(recs []cluster.FlowRecord, capacity float64) error {
	for i, rec := range recs {
		floor := float64(rec.Size) * 8 / capacity
		if !(rec.FCT >= floor*(1-1e-9)) {
			return fmt.Errorf("flow %d (%d bytes) finished in %g s, under the %g s its size takes on a %g b/s link",
				i, rec.Size, rec.FCT, floor, capacity)
		}
	}
	return nil
}

// checkFigureResults checks one pass's figures: every FCT CDF is
// nondecreasing and ends at 1, every other point is finite and
// non-negative, and SCDA's mean FCT is below RandTCP's in every scenario.
func checkFigureResults(oc *outcome, scens []figScenario, res []experiments.FigureResult) {
	if len(res) != len(experiments.FigureIDs()) {
		oc.checkf("figures: pass returned %d figures, want %d", len(res), len(experiments.FigureIDs()))
	}
	for _, f := range res {
		for _, s := range f.Series {
			var err error
			if f.YLabel == "FCT CDF" {
				err = checkCDF(s.Points)
			} else {
				err = checkPoints(s.Points)
			}
			if err != nil {
				oc.checkf("figures %s %s: %v", f.ID, s.Name, err)
			}
		}
	}
	for _, s := range scens {
		f := figureByID(res, s.cdfFig)
		if f == nil {
			oc.checkf("figures: %s missing", s.cdfFig)
			continue
		}
		if !(f.Summary["scda_mean_fct"] < f.Summary["rand_mean_fct"]) {
			oc.checkf("figures %s: SCDA mean FCT %g is not below RandTCP's %g",
				s.name, f.Summary["scda_mean_fct"], f.Summary["rand_mean_fct"])
		}
	}
}

// checkRebuiltMeans checks that the rebuilt runs reproduce the suite's
// mean FCT per system exactly.
func checkRebuiltMeans(oc *outcome, scens []figScenario, runs []*figRun, res []experiments.FigureResult) {
	for _, r := range runs {
		f := figureByID(res, scens[r.scen].cdfFig)
		if f == nil {
			continue
		}
		key := "scda_mean_fct"
		if r.sys == cluster.RandTCP {
			key = "rand_mean_fct"
		}
		if got, want := r.meanFCT, f.Summary[key]; got != want {
			oc.checkf("figures %s/%v: rebuilt run's mean FCT %v differs from the suite's %v",
				scens[r.scen].name, r.sys, got, want)
		}
	}
}

func figureByID(res []experiments.FigureResult, id string) *experiments.FigureResult {
	for i := range res {
		if res[i].ID == id {
			return &res[i]
		}
	}
	return nil
}

// figureDigest is the SHA-256 of one pass's figure series (as the CLI's
// long-form CSV) and summaries, in paper order.
func figureDigest(res []experiments.FigureResult) string {
	h := sha256.New()
	for _, id := range experiments.FigureIDs() {
		f := figureByID(res, id)
		if f == nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", f.ID)
		if err := export.WriteSeriesLong(h, f.Series); err != nil {
			fmt.Fprintf(h, "error %v\n", err)
		}
		for _, k := range sortedKeys(f.Summary) {
			fmt.Fprintf(h, "%s,%v\n", k, f.Summary[k])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// simDigest is the SHA-256 of the rebuilt runs' simulated statistics.
func simDigest(runs []*figRun) string {
	h := sha256.New()
	for _, r := range runs {
		fmt.Fprintf(h, "%d %v events=%d hops=%d delivered=%d drops=%d completed=%d violations=%d meanfct=%v\n",
			r.scen, r.sys, r.events, r.hops, r.delivered, r.drops, r.completed, r.violations, r.meanFCT)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
