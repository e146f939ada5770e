// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process — the paper's figure suite (figures), the fluid
// engine's ramp and churn (fluid), or a closed loop against an in-process
// 3-peer scda-serve ring (serve) — checks the outputs against independent
// computations, and prints one JSON line with the end-to-end metrics:
//
//	go run . --workload figures --seed 1 --seconds 12 --trace 0
//
// With --trace 1 the same workload runs once more with spans around every
// public call the benchmark makes, counters read at the same boundaries
// and a CPU profile folded by package, and the JSON line carries the
// per-layer metrics instead. See README.md for the metrics, the inputs and
// reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command-line knobs shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// out holds the traced run's span file and the serve workload's cache
	// and journal directories.
	out string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	// setups holds the CPU seconds (user and system, all threads) of each
	// repeated set-up and setupWall its wall-clock seconds; passes holds
	// the wall-clock seconds of each timed pass over the workload's op
	// list.
	setups    []float64
	setupWall []float64
	passes    []float64
	// passRSS holds the peak resident set, in MB, sampled during each
	// timed pass.
	passRSS []float64
	// passCPU holds the process's CPU seconds (user and system) during
	// each timed pass.
	passCPU []float64
	// attempted and failed count the operations of the timed passes.
	attempted, failed int64
	// problems lists every output check that failed.
	problems []string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// detail holds the workload's own end-to-end figures (sample counts
	// included), printed to standard error as the human-readable report.
	detail []string
}

// checkf records a failed output check.
func (o *outcome) checkf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// detailf adds a line to the human-readable report.
func (o *outcome) detailf(format string, args ...any) {
	o.detail = append(o.detail, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *tracer) (*outcome, error){
	"figures": runFigures,
	"fluid":   runFluid,
	"serve":   runServe,
}

// passesFor sizes a run: the number of timed passes whose nominal cost
// fills the requested seconds, never fewer than min. The count depends
// only on the arguments, so every run on every machine does the same work.
func passesFor(seconds int, nominal float64, min int) int {
	n := int(math.Round(float64(seconds) / nominal))
	if n < min {
		n = min
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "figures | fluid | serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "nominal measured seconds; sets the number of timed passes")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for trace files and the serve workload's cache and journals (default: a temporary directory)")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want figures, fluid or serve)", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if o.out == "" {
		dir, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		o.out = dir
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	// The workloads run on one processor. The timed metrics are CPU
	// seconds, and with a single P the Go runtime neither spins idle
	// threads looking for work nor runs idle-time GC workers on a second
	// processor; both add CPU time that follows how the host schedules the
	// process rather than the program's work. Beside two CPU-bound
	// processes competing for the machine, a serve pass's CPU seconds
	// rose 3% with one P and 25% with two.
	runtime.GOMAXPROCS(1)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	oc, err := fn(o, tr)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	res := result{
		Correct:   len(oc.problems) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	if o.trace {
		oc.layers["traced.setup_s"] = oc.setups[len(oc.setups)-1]
		oc.layers["traced.pass_s"] = median(oc.passes)
		oc.layers["traced.pass_cpu_s"] = median(oc.passCPU)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: oc.layers[m.name], Unit: m.unit}
		}
		path := filepath.Join(o.out, o.workload+"-trace.json")
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "spans and counters written to", path)
	} else {
		e2e := map[string]float64{"setup_s": median(oc.setups), "pass_cpu_s": median(oc.passCPU), "peak_rss_mb": median(oc.passRSS)}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v: %d set-ups, CPU seconds %s, wall seconds %s\n",
		o.workload, o.seed, o.trace, len(oc.setups), fmtSeconds(oc.setups), fmtSeconds(oc.setupWall))
	fmt.Fprintf(os.Stderr, "  %d timed passes, CPU seconds %s, wall seconds %s\n", len(oc.passes), fmtSeconds(oc.passCPU), fmtSeconds(oc.passes))
	fmt.Fprintf(os.Stderr, "  peak RSS per timed pass %s MB; of the whole process %.1f MB\n", fmtSeconds(oc.passRSS), processPeakRSSMB())
	for _, line := range oc.detail {
		fmt.Fprintln(os.Stderr, "  "+line)
	}
	for _, p := range oc.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	// A metric without a value (an op class none of whose operations
	// succeeded) marks the run incorrect and reads 0, so the result line
	// still reports what was attempted and what failed.
	for _, name := range sortedMetricNames(res.Metrics) {
		if m := res.Metrics[name]; math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "CHECK FAILED: metric %s has no value (%v)\n", name, m.Value)
			res.Correct = false
			res.Metrics[name] = metricValue{Unit: m.Unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func sortedMetricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// processPeakRSSMB reads the process's peak resident set size (Linux
// reports ru_maxrss in kilobytes).
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// processCPUSeconds reads the user and system CPU seconds the process
// has used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssMB reads the process's current resident set size from
// /proc/self/statm; NaN where that cannot be read.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSamplePeriod is how often sampleRSS reads the resident set.
const rssSamplePeriod = 5 * time.Millisecond

// sampleRSS starts reading the resident set every rssSamplePeriod; the
// returned function stops the sampler, waits for it, and returns the
// highest value read, including one final reading.
func sampleRSS() (stop func() float64) {
	quit := make(chan struct{})
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(rssSamplePeriod)
		defer t.Stop()
		max := rssMB()
		for {
			select {
			case <-quit:
				peak <- math.Max(max, rssMB())
				return
			case <-t.C:
				max = math.Max(max, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-peak
	}
}

// timeSetups repeats a workload's set-up n times and records the CPU and
// wall-clock seconds of each; the state of the last set-up is the one the
// run keeps. Each set-up starts after a forced collection, so all start
// from the same heap. Only the last set-up is traced.
func (o *outcome) timeSetups(n int, tr *tracer, setup func(*tracer) error) error {
	for i := 0; i < n; i++ {
		t := tr
		if i < n-1 {
			t = nil
		}
		runtime.GC()
		cpu0 := processCPUSeconds()
		d, err := timed(func() error { return setup(t) })
		cpu := processCPUSeconds() - cpu0
		if err != nil {
			return err
		}
		o.setups = append(o.setups, cpu)
		o.setupWall = append(o.setupWall, d)
	}
	return nil
}

// timePass times one pass over the op list and records its wall-clock
// and CPU seconds and the peak resident set sampled while it ran. Each
// pass starts after a forced collection that also returns free memory to
// the operating system, so its peak is the pass's own and not a
// high-water mark left by set-up, warm-up or an earlier pass.
func (o *outcome) timePass(fn func() error) error {
	debug.FreeOSMemory()
	stop := sampleRSS()
	cpu0 := processCPUSeconds()
	d, err := timed(fn)
	cpu := processCPUSeconds() - cpu0
	rss := stop()
	if err != nil {
		return err
	}
	o.passes = append(o.passes, d)
	o.passCPU = append(o.passCPU, cpu)
	o.passRSS = append(o.passRSS, rss)
	return nil
}

// timed runs fn and returns its wall-clock seconds.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// median returns the middle value (the mean of the two middle values for
// an even count); NaN for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest percentile that has at least ten samples
// beyond it, with its label; ok is false below forty samples, where that
// percentile would be no tail.
func tail(xs []float64) (v float64, label string, ok bool) {
	if len(xs) < 40 {
		return math.NaN(), "", false
	}
	q := 1 - 10/float64(len(xs))
	return quantile(xs, q), "p" + strconv.FormatFloat(math.Round(q*1000)/10, 'f', -1, 64), true
}

func fmtSeconds(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}
