package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/flowsim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// twoLinks is a fabric of two 10 b/s links.
var twoLinks = []topology.Link{{ID: 0, Capacity: 10}, {ID: 1, Capacity: 10}}

func flow(id int64, rate float64, path ...topology.LinkID) *flowsim.Flow {
	return &flowsim.Flow{ID: id, Rate: rate, Weight: 1, Path: path}
}

func TestCheckMaxMin(t *testing.T) {
	// Flow 0 crosses both links; flows 1 and 2 one each. Max-min gives
	// every flow 5 b/s and saturates both links.
	fair := []*flowsim.Flow{flow(0, 5, 0, 1), flow(1, 5, 0), flow(2, 5, 1)}
	if err := checkMaxMin(fair, twoLinks); err != nil {
		t.Fatalf("max-min allocation rejected: %v", err)
	}
	over := []*flowsim.Flow{flow(0, 6, 0, 1), flow(1, 5, 0), flow(2, 4, 1)}
	if err := checkMaxMin(over, twoLinks); err == nil {
		t.Fatal("an over-capacity link was accepted")
	}
	// Feasible but not max-min: flow 2 could grow to 6 on link 1.
	slack := []*flowsim.Flow{flow(0, 4, 0, 1), flow(1, 6, 0), flow(2, 5, 1)}
	if err := checkMaxMin(slack, twoLinks); err == nil {
		t.Fatal("an allocation with an unsaturated flow was accepted")
	}
	// Saturated, but flow 0 is below flow 1 on its only shared link and
	// below flow 2 on the other: no bottleneck for flow 0.
	unfair := []*flowsim.Flow{flow(0, 4, 0, 1), flow(1, 6, 0), flow(2, 6, 1)}
	if err := checkMaxMin(unfair, twoLinks); err == nil {
		t.Fatal("an unfair allocation was accepted")
	}
}

func TestCheckFlowFloor(t *testing.T) {
	// 1000 bytes over a 8000 b/s link take at least 1 s.
	ok := []cluster.FlowRecord{{Size: 1000, FCT: 1}, {Size: 500, FCT: 3}}
	if err := checkFlowFloor(ok, 8000); err != nil {
		t.Fatalf("valid flows rejected: %v", err)
	}
	fast := []cluster.FlowRecord{{Size: 1000, FCT: 1}, {Size: 1000, FCT: 0.9}}
	if err := checkFlowFloor(fast, 8000); err == nil {
		t.Fatal("a flow faster than its link was accepted")
	}
}

func TestCheckFluidFloor(t *testing.T) {
	links := []topology.Link{{ID: 0, Capacity: 100}, {ID: 1, Capacity: 10}}
	path := []topology.LinkID{0, 1}
	if err := checkFluidFloor(50, 2, 7, path, links); err != nil {
		t.Fatalf("a flow at its narrowest link's rate was rejected: %v", err)
	}
	if err := checkFluidFloor(50, 2, 6, path, links); err == nil {
		t.Fatal("a flow faster than its narrowest link was accepted")
	}
}

func TestCheckCDFAndPoints(t *testing.T) {
	good := []stats.Point{{X: 0.1, Y: 0.25}, {X: 0.2, Y: 0.5}, {X: 0.4, Y: 1}}
	if err := checkCDF(good); err != nil {
		t.Fatalf("valid CDF rejected: %v", err)
	}
	for name, bad := range map[string][]stats.Point{
		"decreasing": {{X: 0.1, Y: 0.5}, {X: 0.2, Y: 0.25}, {X: 0.4, Y: 1}},
		"short":      {{X: 0.1, Y: 0.25}, {X: 0.2, Y: 0.9}},
		"empty":      nil,
	} {
		if err := checkCDF(bad); err == nil {
			t.Errorf("%s CDF accepted", name)
		}
	}
	if err := checkPoints(good); err != nil {
		t.Fatalf("valid points rejected: %v", err)
	}
	for _, p := range []stats.Point{{X: 1, Y: -1}, {X: 1, Y: math.NaN()}, {X: math.Inf(1), Y: 1}} {
		if err := checkPoints([]stats.Point{p}); err == nil {
			t.Errorf("point %+v accepted", p)
		}
	}
}

// TestServeDetectsFlippedByte runs one hit through a live ring and shows
// that the artifact check fails once a single expected byte is flipped.
func TestServeDetectsFlippedByte(t *testing.T) {
	r, err := startRing(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	si, err := newSpecInfo(jobBody(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := si.expect(nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	op := &serveOp{kind: opMiss, spec: si}
	r.do(ctx, op, nil, 0, 0)
	if op.err != nil || !op.match {
		t.Fatalf("fresh job: err %v, match %v", op.err, op.match)
	}
	hit := &serveOp{kind: opHit, spec: si, entry: 1}
	r.do(ctx, hit, nil, 0, 1)
	if hit.err != nil || !hit.match || !hit.hit {
		t.Fatalf("cached job: err %v, match %v, cacheHit %v", hit.err, hit.match, hit.hit)
	}
	si.want[len(si.want)/2] ^= 1
	flipped := &serveOp{kind: opHit, spec: si, entry: 2}
	r.do(ctx, flipped, nil, 0, 2)
	if flipped.err != nil || flipped.match {
		t.Fatalf("flipped byte: err %v, match %v; want a mismatch", flipped.err, flipped.match)
	}
}

func TestPlanServeKeepsHotSetCached(t *testing.T) {
	for _, seconds := range []int{1, 20, 600} {
		p, err := planServe(3, seconds)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.passes)-1 < 10 {
			t.Errorf("%d s: %d timed passes, want at least 10", seconds, len(p.passes)-1)
		}
		keys := 0
		for _, si := range p.fresh {
			keys += len(si.keys)
		}
		if len(p.hot)+keys > memCacheEntries {
			t.Errorf("%d s: %d hot and %d fresh specs overflow the %d-entry cache", seconds, len(p.hot), keys, memCacheEntries)
		}
	}
	a, _ := planServe(5, 20)
	b, _ := planServe(5, 20)
	for i := range a.passes[1] {
		if string(a.passes[1][i].spec.body) != string(b.passes[1][i].spec.body) || a.passes[1][i].entry != b.passes[1][i].entry {
			t.Fatal("the same seed gave different op lists")
		}
	}
}

func TestParseTopFoldsByLayer(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
      flat  flat%   sum%        cum   cum%
    6820ms 75.78% 75.78%     7000ms 77.78%  repro/internal/sim.(*Simulator).RunUntil
    1130ms 12.56% 88.33%     1200ms 13.33%  repro/internal/netsim.(*Network).Send
     200ms  2.22% 90.56%      300ms  3.33%  runtime.mallocgc
      40ms  0.44% 91.00%       40ms  0.44%  gcWriteBarrier
      30ms  0.33% 91.33%       30ms  0.33%  repro/internal/runner.Map[go.shape.struct { a/b.c }] (inline)
      20ms  0.22% 91.56%       20ms  0.22%  net/http.(*conn).serve
      10ms  0.11% 91.67%       10ms  0.11%  strconv.ParseFloat
      50ms  0.56% 92.22%       50ms  0.56%  internal/runtime/syscall.Syscall6
`)
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 6.82, "netsim": 1.13, "runtime": 0.24, "runner": 0.03, "nethttp": 0.02, "other": 0.01, "syscall": 0.05, "total": 8.30}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseTop([]byte("no samples\n")); err == nil {
		t.Error("output without samples accepted")
	}
}

func TestTailNeedsFortySamples(t *testing.T) {
	xs := make([]float64, 39)
	if _, _, ok := tail(xs); ok {
		t.Error("a tail over 39 samples")
	}
	for n, label := range map[int]string{40: "p75", 100: "p90", 1000: "p99", 67: "p85.1"} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, l, ok := tail(xs); !ok || l != label {
			t.Errorf("n=%d: tail %q, want %q", n, l, label)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
}

// TestTimePassSamplesPeakRSS shows that a pass's peak resident set is
// its own: memory a pass touches shows in its sample, and memory freed
// before the next pass does not.
func TestTimePassSamplesPeakRSS(t *testing.T) {
	const size = 32 << 20
	var oc outcome
	var buf []byte
	if err := oc.timePass(func() error {
		buf = make([]byte, size)
		for i := range buf {
			buf[i] = 1
		}
		time.Sleep(4 * rssSamplePeriod)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	buf = nil
	if err := oc.timePass(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(oc.passRSS) != 2 {
		t.Fatalf("%d RSS samples for 2 passes", len(oc.passRSS))
	}
	if grew := oc.passRSS[0] - oc.passRSS[1]; grew < 0.75*size/(1<<20) {
		t.Errorf("a pass touching %d MB peaked only %.1f MB above an empty one", size>>20, grew)
	}
}
