package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span
	Op     int64  `json:"op"`     // the operation the span serves; -1 = none
	Name   string `json:"name"`
	// Start and End are seconds since the tracer started; Self is the
	// duration minus the part of it the span's children cover.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Self  float64 `json:"self_s"`
}

// counter is a value read at a span boundary: a layer's exported counter
// or a count the benchmark takes of a layer's output.
type counter struct {
	Span  int     `json:"span"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer records spans and counters in memory and writes them out when
// the run ends. A nil *tracer records nothing, so untraced runs execute
// the same code with every tracing call a no-op.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters []counter
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: []span{}, counters: []counter{}}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span id.
func (t *tracer) do(name string, parent int, op int64, fn func() error) (int, error) {
	id := t.begin(name, parent, op)
	err := fn()
	t.end(id)
	return id, err
}

// count records a counter value at span id.
func (t *tracer) count(id int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters = append(t.counters, counter{Span: id, Name: name, Value: v})
	t.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// durations lists the durations of every span with the given name, in
// the order they were opened.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores every span (with its self time) and counter as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - children[t.spans[i].ID]
	}
	b, err := json.MarshalIndent(struct {
		Spans    []span    `json:"spans"`
		Counters []counter `json:"counters"`
	}{t.spans, t.counters}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profile runs fn under the CPU profiler, writing the profile to path.
func profile(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	return ferr
}

// cpuLayers are the layers a CPU profile folds into, each the list of
// package paths (or path prefixes ending in "/") whose flat samples it
// takes. Packages in no layer fold into "other".
var cpuLayers = []struct {
	layer string
	pkgs  []string
}{
	{"sim", []string{"repro/internal/sim"}},
	{"netsim", []string{"repro/internal/netsim"}},
	{"topology", []string{"repro/internal/topology"}},
	{"transport", []string{"repro/internal/transport", "repro/internal/tcp", "repro/internal/scdatp"}},
	{"ratealloc", []string{"repro/internal/ratealloc"}},
	{"cluster", []string{"repro/internal/cluster", "repro/internal/dfs", "repro/internal/selection",
		"repro/internal/power", "repro/internal/content", "repro/internal/hostres", "repro/internal/scheduler"}},
	{"stats", []string{"repro/internal/stats"}},
	{"flowsim", []string{"repro/internal/flowsim"}},
	{"workload", []string{"repro/internal/workload"}},
	{"scenario", []string{"repro/internal/scenario"}},
	{"service", []string{"repro/internal/service"}},
	{"ring", []string{"repro/internal/ring"}},
	{"runner", []string{"repro/internal/runner"}},
	{"nethttp", []string{"net/http", "net/http/"}},
	{"json", []string{"encoding/json"}},
	{"syscall", []string{"syscall", "internal/runtime/syscall", "internal/syscall/", "internal/poll", "net"}},
	{"runtime", []string{"runtime", "runtime/", "internal/runtime/"}},
}

// packageOf returns the package path of a symbol as pprof prints it
// ("repro/internal/sim.(*Simulator).RunUntil" → "repro/internal/sim").
// Symbols without a package qualifier (gcWriteBarrier, memeqbody) are the
// runtime's assembly routines.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[ "); i >= 0 {
		fn = fn[:i] // generic instantiations carry dotted paths in brackets
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// layerOf names the layer a package folds into.
func layerOf(pkg string) string {
	for _, l := range cpuLayers {
		for _, p := range l.pkgs {
			if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) {
				return l.layer
			}
		}
	}
	return "other"
}

// foldProfile runs `go tool pprof -top` on a CPU profile and sums each
// function's flat (self) seconds into its layer; the "total" key holds
// the profile's whole sample time.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop folds `pprof -top -unit=ms` output (rows of "flat flat% sum%
// cum cum% function") by layer, in seconds.
func parseTop(out []byte) (map[string]float64, error) {
	layers := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue // the "flat flat%" header
		}
		fn := strings.Join(f[5:], " ")
		layers[layerOf(packageOf(fn))] += ms / 1e3
		layers["total"] += ms / 1e3
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof printed no samples:\n%s", out)
	}
	return layers, nil
}

// profileLayers runs fn under the CPU profiler, folds the profile and
// adds it to the outcome's per-layer metrics; it returns the folded
// profile.
func (o *outcome) profileLayers(path string, fn func() error) (map[string]float64, error) {
	if err := profile(path, fn); err != nil {
		return nil, err
	}
	folded, err := foldProfile(path)
	if err != nil {
		return nil, err
	}
	addCPU(o.layers, folded)
	return folded, nil
}

// addCPU copies a folded profile into per-layer metrics (cpu.<layer>_s).
func addCPU(layers map[string]float64, folded map[string]float64) {
	for _, l := range cpuLayers {
		layers["cpu."+l.layer+"_s"] = folded[l.layer]
	}
	layers["cpu.other_s"] = folded["other"]
	layers["cpu.total_s"] = folded["total"]
}
