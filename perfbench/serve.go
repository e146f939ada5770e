package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
)

// The serve workload's op list. Each pass submits hitsPerPass cached
// specs drawn from the hot set, missesPerPass fresh specs and
// groupsPerPass fresh sweep groups of groupVariants variants, in a
// seeded order, from one closed-loop client to a ring of servePeers
// peers. The repository has no record of scda-serve traffic, so the mix
// is an assumption, sized with two Ps so that each op class took about a
// third of a pass on the reference machine (a hit about 0.5 ms, a miss
// about 6 ms, a group about 17 ms; on one P hits take about a quarter):
// a change to the hit path or to the compute path moves pass_cpu_s by a
// comparable share. One client, so the load comes
// from a single closed loop on the run's one processor.
const (
	servePeers      = 3
	hotSpecs        = 48
	hitsPerPass     = 240
	missesPerPass   = 24
	groupsPerPass   = 8
	groupVariants   = 3
	servePassSecs   = 0.6 // nominal cost of one pass on the reference machine
	serveSetups     = 9
	memCacheEntries = 4096 // each peer's service.Config.CacheEntries: FIFO, not LRU
	serveArtifact   = "summary"
	serveReqTimeout = time.Minute
)

// serveSpec is a small packet spec shaped like scripts/chaosload's
// template: about 18 datacenter requests over 6 simulated seconds, a few
// milliseconds of simulation. %d slots take the name suffix and the seed.
const serveSpec = `{
  "version": 1,
  "name": "serve-%d",
  "seed": %d,
  "duration": 6,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}],
  "outputs": {"series": ["throughput"]}
}`

// serveGroupSpec sweeps the same spec over fresh seeds.
const serveGroupSpec = `{
  "version": 1,
  "name": "serve-group-%d",
  "seed": 1,
  "duration": 6,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}],
  "outputs": {"series": ["throughput"]},
  "sweep": {"parameter": "seed", "values": [%s]}
}`

type opKind int

const (
	opHit opKind = iota
	opMiss
	opGroup
)

func (k opKind) String() string {
	return [...]string{"hit", "miss", "group"}[k]
}

// serveSpecInfo is one distinct submission body of the run.
type serveSpecInfo struct {
	body []byte
	// keys are the spec hashes the body submits: the ring's placement key
	// for a job, one per expanded variant for a group.
	keys []string
	// want is the artifact the benchmark computes for the body itself.
	want []byte
}

// serveOp is one request of the op list and what it observed.
type serveOp struct {
	kind  opKind
	spec  *serveSpecInfo
	entry int // index of the peer the op enters at
	// results of the op
	local   bool    // the entry peer owns the spec
	latency float64 // seconds from submission to fetched artifact
	err     error
	hit     bool     // the job status reported cacheHit
	match   bool     // the fetched artifact equals spec.want
	sum     [32]byte // SHA-256 of the fetched artifact
}

// ring is an in-process scda-serve fleet wired the way
// servicetest.StartRing wires one: loopback listeners bound first, then
// one Service per listener with Self/Peers set, probes off, and a private
// disk cache and journal per peer.
type ring struct {
	urls  []string
	svcs  []*service.Service
	srvs  []*http.Server
	wg    sync.WaitGroup
	dir   string
	trans *http.Transport
	cls   []*client.Client // one per peer, retries off
	http  *http.Client
}

func startRing(dir string) (*ring, error) {
	r := &ring{dir: dir}
	lns := map[string]net.Listener{}
	for i := 0; i < servePeers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			return nil, err
		}
		u := "http://" + ln.Addr().String()
		lns[u] = ln
		r.urls = append(r.urls, u)
	}
	sort.Strings(r.urls) // ring node index = position in the sorted list
	for i, u := range r.urls {
		svc := service.New(service.Config{
			Self:          u,
			Peers:         r.urls,
			ProbeInterval: -1,
			CacheEntries:  memCacheEntries,
			CacheDir:      filepath.Join(dir, fmt.Sprintf("cache-n%d", i)),
			JournalDir:    filepath.Join(dir, fmt.Sprintf("journal-n%d", i)),
		})
		srv := &http.Server{Handler: svc.Handler()}
		ln := lns[u]
		r.svcs = append(r.svcs, svc)
		r.srvs = append(r.srvs, srv)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			srv.Serve(ln)
		}()
	}
	r.trans = &http.Transport{}
	r.http = &http.Client{Transport: r.trans, Timeout: serveReqTimeout}
	for _, u := range r.urls {
		r.cls = append(r.cls, client.New(u, client.WithHTTPClient(r.http),
			client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1})))
	}
	return r, nil
}

// stop closes every server and service, waits for the serving goroutines
// and removes the peers' directories.
func (r *ring) stop() error {
	for i := range r.srvs {
		r.srvs[i].Close()
		r.svcs[i].Close()
	}
	r.wg.Wait()
	r.trans.CloseIdleConnections()
	return os.RemoveAll(r.dir)
}

// owner returns the index of the peer owning a placement key.
func (r *ring) owner(key string) int {
	return r.svcs[0].Ring().OwnerIndex(key)
}

// do runs one op against its entry peer: submit, then fetch the summary
// artifact.
func (r *ring) do(ctx context.Context, op *serveOp, tr *tracer, parent int, opID int64) {
	root := tr.begin("serve."+op.kind.String(), parent, opID)
	defer tr.end(root)
	t0 := time.Now()
	var got []byte
	if op.kind == opGroup {
		got, op.err = r.group(ctx, op, tr, root, opID)
	} else {
		got, op.err = r.job(ctx, op, tr, root, opID)
	}
	op.latency = time.Since(t0).Seconds()
	op.match = bytes.Equal(got, op.spec.want)
	op.sum = sha256.Sum256(got)
}

func (r *ring) job(ctx context.Context, op *serveOp, tr *tracer, parent int, opID int64) ([]byte, error) {
	c := r.cls[op.entry]
	var st client.Status
	_, err := tr.do("client.Submit", parent, opID, func() error {
		var err error
		st, err = c.Submit(ctx, op.spec.body, client.SubmitOpts{Wait: op.kind == opMiss})
		return err
	})
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("job %s is %s after submission: %s", st.ID, st.State, st.Error)
	}
	op.hit = st.CacheHit
	var got []byte
	_, err = tr.do("client.Result", parent, opID, func() error {
		var err error
		got, err = c.Result(ctx, st.ID, serveArtifact)
		return err
	})
	return got, err
}

// group submits a sweep group with ?wait=true and fetches its
// concatenated summary CSV; the client package has no group calls, so
// these are plain HTTP requests.
func (r *ring) group(ctx context.Context, op *serveOp, tr *tracer, parent int, opID int64) ([]byte, error) {
	base := r.urls[op.entry]
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	_, err := tr.do("http.SubmitGroup", parent, opID, func() error {
		b, err := r.request(ctx, http.MethodPost, base+"/v1/groups?wait=true", op.spec.body)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, &st)
	})
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("group %s is %s after submission: %s", st.ID, st.State, st.Error)
	}
	var got []byte
	_, err = tr.do("http.GroupResult", parent, opID, func() error {
		var err error
		got, err = r.request(ctx, http.MethodGet, base+"/v1/groups/"+st.ID+"/result?csv="+serveArtifact, nil)
		return err
	})
	return got, err
}

func (r *ring) request(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// metric sums every series of a Prometheus counter or gauge over the
// fleet's /metrics pages.
func (r *ring) metric(ctx context.Context, name string) (float64, error) {
	total := 0.0
	for _, c := range r.cls {
		text, err := c.Metrics(ctx)
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
				continue
			}
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return 0, fmt.Errorf("metric line %q: %v", line, err)
			}
			total += v
		}
	}
	return total, nil
}

// fleetCounters are the service counters the benchmark reads from every
// peer's /metrics page and sums.
var fleetCounters = []string{"scda_cache_hits_total", "scda_cache_misses_total", "scda_ring_forwards_total", "scda_disk_cache_bytes"}

// seedSource hands out distinct spec seeds drawn from the workload seed.
type seedSource struct {
	rng  *sim.RNG
	used map[uint64]bool
}

func (s *seedSource) next() uint64 {
	for {
		v := s.rng.Uint64() >> 24 // below 2^40: exact as a JSON sweep value
		if v != 0 && !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

func jobBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(serveSpec, seed, seed))
}

func groupBody(seeds []uint64) []byte {
	vals := make([]string, len(seeds))
	for i, s := range seeds {
		vals[i] = strconv.FormatUint(s, 10)
	}
	return []byte(fmt.Sprintf(serveGroupSpec, seeds[0], strings.Join(vals, ", ")))
}

// newSpecInfo parses a body and records the spec hashes it submits.
func newSpecInfo(body []byte) (*serveSpecInfo, error) {
	s, err := scenario.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	variants, err := s.Expand()
	if err != nil {
		return nil, err
	}
	si := &serveSpecInfo{body: body}
	for _, v := range variants {
		key, err := v.Hash()
		if err != nil {
			return nil, err
		}
		si.keys = append(si.keys, key)
	}
	return si, nil
}

// expect computes the artifact the spec's ops must fetch, independently
// of the service: scenario.Run and the shared summary encoder,
// concatenated over Spec.Expand's variants for a group.
func (si *serveSpecInfo) expect(tr *tracer) error {
	s, err := scenario.Parse(bytes.NewReader(si.body))
	if err != nil {
		return err
	}
	variants, err := s.Expand()
	if err != nil {
		return err
	}
	var out bytes.Buffer
	for _, v := range variants {
		var res *scenario.Result
		if _, err := tr.do("scenario.Run", 0, -1, func() error {
			var err error
			res, err = scenario.Run(v)
			return err
		}); err != nil {
			return err
		}
		if err := res.WriteSummaryCSV(&out); err != nil {
			return err
		}
	}
	si.want = out.Bytes()
	return nil
}

// servePlan is the seeded op list of one run.
type servePlan struct {
	hot    []*serveSpecInfo
	fresh  []*serveSpecInfo
	passes [][]*serveOp // passes[0] is the untimed warm-up
}

// planServe draws the hot set and the op lists of a warm-up pass and of
// the timed passes that fill the given seconds. At least 10 timed passes
// run, so the 80 group latencies have a tail. The pass count is capped so
// that every fresh spec of the run fits a single peer's memory cache
// beside the hot set: hot specs are inserted first and the cache evicts
// in insertion order, so an overflow would turn hits into disk reloads.
func planServe(seed uint64, seconds int) (*servePlan, error) {
	fresh := missesPerPass + groupsPerPass*groupVariants
	passes := passesFor(seconds, servePassSecs, 10)
	if max := (memCacheEntries-hotSpecs)/fresh - 1; passes > max {
		passes = max
	}
	seeds := &seedSource{rng: sim.NewRNG(seed), used: map[uint64]bool{}}
	order := sim.NewRNG(seed).Split(1)
	p := &servePlan{}
	add := func(list *[]*serveSpecInfo, body []byte) (*serveSpecInfo, error) {
		si, err := newSpecInfo(body)
		if err != nil {
			return nil, err
		}
		*list = append(*list, si)
		return si, nil
	}
	for i := 0; i < hotSpecs; i++ {
		if _, err := add(&p.hot, jobBody(seeds.next())); err != nil {
			return nil, err
		}
	}
	for pass := 0; pass <= passes; pass++ {
		var ops []*serveOp
		for i := 0; i < hitsPerPass; i++ {
			ops = append(ops, &serveOp{kind: opHit, spec: p.hot[order.Intn(hotSpecs)]})
		}
		for i := 0; i < missesPerPass; i++ {
			si, err := add(&p.fresh, jobBody(seeds.next()))
			if err != nil {
				return nil, err
			}
			ops = append(ops, &serveOp{kind: opMiss, spec: si})
		}
		for i := 0; i < groupsPerPass; i++ {
			g := make([]uint64, groupVariants)
			for j := range g {
				g[j] = seeds.next()
			}
			si, err := add(&p.fresh, groupBody(g))
			if err != nil {
				return nil, err
			}
			ops = append(ops, &serveOp{kind: opGroup, spec: si})
		}
		for i, j := range order.Perm(len(ops)) {
			ops[i], ops[j] = ops[j], ops[i]
		}
		for i, op := range ops {
			op.entry = i % servePeers
		}
		p.passes = append(p.passes, ops)
	}
	return p, nil
}

// expectAll computes every spec's expected artifact, untimed, one
// goroutine per processor of the machine; it lifts the run's one-P limit
// while it works.
func expectAll(specs []*serveSpecInfo, tr *tracer) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(specs)) || errs[w] != nil {
					return
				}
				errs[w] = specs[i].expect(tr)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runPass drives one pass's ops from one closed-loop client.
func (r *ring) runPass(ctx context.Context, ops []*serveOp, tr *tracer, parent int, opBase int64) {
	for i, op := range ops {
		r.do(ctx, op, tr, parent, opBase+int64(i))
	}
}

// serveSetup starts a ring and warms the hot set into the owners' caches.
func serveSetup(ctx context.Context, dir string, plan *servePlan, tr *tracer) (*ring, error) {
	var r *ring
	if _, err := tr.do("service.start", 0, -1, func() error {
		var err error
		r, err = startRing(dir)
		return err
	}); err != nil {
		return nil, err
	}
	for i, si := range plan.hot {
		c := r.cls[i%servePeers]
		if _, err := tr.do("warm.Submit", 0, int64(i), func() error {
			st, err := c.Submit(ctx, si.body, client.SubmitOpts{Wait: true})
			if err == nil && st.State != "done" {
				err = fmt.Errorf("hot spec %d is %s: %s", i, st.State, st.Error)
			}
			return err
		}); err != nil {
			r.stop()
			return nil, err
		}
	}
	return r, nil
}

func runServe(o options, tr *tracer) (*outcome, error) {
	oc := &outcome{layers: map[string]float64{}}
	ctx := context.Background()
	plan, err := planServe(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}

	// Each set-up starts a fresh ring. The earlier ones are stopped and
	// their directories removed only after the timed set-ups, so no
	// set-up pays for another's teardown.
	var rings []*ring
	if err := oc.timeSetups(serveSetups, tr, func(tr *tracer) error {
		dir := filepath.Join(o.out, fmt.Sprintf("serve-%d-%d", os.Getpid(), len(rings)+1))
		r, err := serveSetup(ctx, dir, plan, tr)
		if err == nil {
			rings = append(rings, r)
		}
		return err
	}); err != nil {
		for _, r := range rings {
			r.stop()
		}
		return nil, err
	}
	r := rings[len(rings)-1]
	defer r.stop()
	for _, old := range rings[:len(rings)-1] {
		if err := old.stop(); err != nil {
			return nil, err
		}
	}

	if err := expectAll(plan.hot, nil); err != nil {
		return nil, err
	}
	if err := expectAll(plan.fresh, tr); err != nil {
		return nil, err
	}
	for _, pass := range plan.passes {
		for _, op := range pass {
			op.local = op.kind != opGroup && r.owner(op.spec.keys[0]) == op.entry
		}
	}
	// Pass 0 is the untimed warm-up.
	r.runPass(ctx, plan.passes[0], nil, 0, 0)
	var ops []*serveOp
	timedPasses := func() error {
		for p, pass := range plan.passes[1:] {
			var id int
			if err := oc.timePass(func() error {
				id = tr.begin("serve.pass", 0, int64(p))
				r.runPass(ctx, pass, tr, id, int64(p*len(pass)))
				tr.end(id)
				return nil
			}); err != nil {
				return err
			}
			ops = append(ops, pass...)
			if tr != nil {
				for _, name := range fleetCounters {
					v, err := r.metric(ctx, name)
					if err != nil {
						return err
					}
					tr.count(id, name, v)
				}
			}
		}
		return nil
	}
	if tr == nil {
		if err := timedPasses(); err != nil {
			return nil, err
		}
	} else {
		if _, err := oc.profileLayers(filepath.Join(o.out, "serve-cpu.pprof"), timedPasses); err != nil {
			return nil, err
		}
	}

	// Every fetched artifact must equal the bytes computed here, every hit
	// must be served from cache, and each distinct spec must be computed
	// once fleet-wide.
	digest := sha256.New()
	for _, pass := range plan.passes {
		for _, op := range pass {
			oc.attempted++
			if op.err != nil {
				oc.failed++
				oc.detailf("%s op failed: %v", op.kind, op.err)
				continue
			}
			if !op.match {
				oc.checkf("serve %s: a fetched artifact differs from scenario.Run's", op.kind)
			}
			if op.kind == opHit && !op.hit {
				oc.checkf("serve: a submission of a hot spec did not report cacheHit")
			}
			digest.Write(op.sum[:])
		}
	}
	distinct := map[string]bool{}
	for _, si := range append(append([]*serveSpecInfo(nil), plan.hot...), plan.fresh...) {
		for _, k := range si.keys {
			distinct[k] = true
		}
	}
	counters := map[string]float64{}
	for _, name := range fleetCounters {
		v, err := r.metric(ctx, name)
		if err != nil {
			return nil, err
		}
		counters[name] = v
	}
	if misses := counters["scda_cache_misses_total"]; int(misses) != len(distinct) {
		oc.checkf("serve: the fleet counted %v cache misses for %d distinct specs", misses, len(distinct))
	}

	lat := func(kind opKind, local int) []float64 { // local: -1 any, 0 forwarded, 1 local
		var out []float64
		for _, op := range ops {
			if op.kind == kind && op.err == nil && (local < 0 || op.local == (local == 1)) {
				out = append(out, op.latency*1e3)
			}
		}
		return out
	}
	hits, misses, groups := lat(opHit, -1), lat(opMiss, -1), lat(opGroup, -1)
	total := 0.0
	for _, d := range oc.passes {
		total += d
	}
	share := func(xs []float64) float64 { // share of the timed passes' seconds
		sum := 0.0
		for _, x := range xs {
			sum += x / 1e3
		}
		return sum / total
	}
	missTail, missLabel, _ := tail(misses)
	groupTail, groupLabel, _ := tail(groups)
	l := oc.layers
	l["serve.hit_p50_ms"] = median(hits)
	l["serve.hit_p99_ms"] = quantile(hits, 0.99)
	l["serve.miss_p50_ms"] = median(misses)
	l["serve.group_p50_ms"] = median(groups)
	l["serve.jobs_per_s"] = float64(len(ops)) / total
	l["serve.hits"] = float64(len(hits))
	l["serve.misses"] = float64(len(misses))
	l["serve.groups"] = float64(len(groups))
	l["service.hit_local_p50_ms"] = median(lat(opHit, 1))
	l["ring.hit_forwarded_p50_ms"] = median(lat(opHit, 0))
	l["service.miss_local_p50_ms"] = median(lat(opMiss, 1))
	l["ring.miss_forwarded_p50_ms"] = median(lat(opMiss, 0))
	l["service.miss_tail_ms"] = missTail
	l["service.group_tail_ms"] = groupTail
	l["service.cache_hits"] = counters["scda_cache_hits_total"]
	l["service.cache_misses"] = counters["scda_cache_misses_total"]
	l["ring.forwards"] = counters["scda_ring_forwards_total"]
	l["service.disk_cache_bytes"] = counters["scda_disk_cache_bytes"]
	if tr != nil {
		l["scenario.run_ms"] = median(tr.durations("scenario.Run")) * 1e3
		var parse []float64
		for i := 0; i < 200; i++ {
			d, err := timed(func() error {
				_, err := newSpecInfo(plan.hot[0].body)
				return err
			})
			if err != nil {
				return nil, err
			}
			parse = append(parse, d)
		}
		l["scenario.parse_hash_us"] = median(parse) * 1e6
		oc.detailf("digest serve artifacts %x", digest.Sum(nil))
	}

	oc.detailf("hit  p50 %.3f ms p99 %.3f ms (n=%d); local p50 %.3f ms (n=%d), forwarded p50 %.3f ms (n=%d)",
		median(hits), quantile(hits, 0.99), len(hits), median(lat(opHit, 1)), len(lat(opHit, 1)), median(lat(opHit, 0)), len(lat(opHit, 0)))
	oc.detailf("miss p50 %.3f ms, %s %.3f ms (n=%d); group p50 %.3f ms, %s %.3f ms (n=%d)",
		median(misses), missLabel, missTail, len(misses), median(groups), groupLabel, groupTail, len(groups))
	oc.detailf("share of pass time: hits %.2f, misses %.2f, groups %.2f", share(hits), share(misses), share(groups))
	oc.detailf("jobs_per_s %.1f over %d timed passes; fleet cache misses %v for %d distinct specs",
		l["serve.jobs_per_s"], len(oc.passes), counters["scda_cache_misses_total"], len(distinct))
	return oc, nil
}
