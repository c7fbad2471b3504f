package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"taskalloc/internal/agent"
	"taskalloc/internal/gridcoord"
	"taskalloc/internal/obs"
	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// warmupIndex is the stream position of the untimed warm-up request of
// the workloads whose requests are independent; the timed phase uses
// positions 0, 1, 2, ...
const warmupIndex = 1 << 30

// sample is the outcome of one timed operation.
type sample struct {
	class     string
	lat, ttfr time.Duration
	end       time.Duration // when it completed, from the start of its phase
	cells     int           // result cells delivered
	antRounds int64         // ant-rounds the server simulated for it
	err       error         // failed call or failed output check
}

// workload drives one traffic mix through the system's front doors.
type workload interface {
	// setup starts the servers (and coordinator), pre-fills what the mix
	// needs, and sends one warm-up request per class.
	setup(ctx context.Context) error
	// do sends the next request of the stream, checks its output, and
	// times it.
	do(ctx context.Context) sample
	// finish runs the once-per-run output checks outside the timed phase.
	finish(ctx context.Context) error
	// layerInputs returns the workload's own inputs the traced run
	// times each layer's public functions on.
	layerInputs(dir string) (layerInputs, error)
	// period is the number of requests after which the stream's class
	// mix repeats.
	period() int
	// servers lists the simulation services the workload drives.
	servers() []*served
	close()
}

func newWorkload(name string, seed uint64, dir string, tr *tracer) (workload, error) {
	switch name {
	case "colony-cold":
		return &colonyCold{seed: seed, tr: tr}, nil
	case "grid-fanout":
		return &gridFanout{seed: seed, tr: tr}, nil
	case "store-mix":
		return &storeMix{seed: seed, dir: dir, tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want colony-cold, grid-fanout or store-mix)", name)
}

// --- front doors ---

// served is one simulation service behind httptest on loopback, with a
// span-recording handler wrapper in front of it.
type served struct {
	srv *simserver.Server
	hs  *httptest.Server
}

// startServer starts one service; its handler spans carry spanName and
// the label (which backend, on a fleet).
func startServer(opts simserver.Options, tr *tracer, spanName, label string) (*served, error) {
	srv, err := simserver.Open(opts)
	if err != nil {
		return nil, err
	}
	return &served{srv: srv, hs: httptest.NewServer(tr.wrap(spanName, label, srv))}, nil
}

func (s *served) close() {
	s.hs.Close()
	s.srv.Close()
}

// scrape fetches the server's /v1/metrics exposition.
func (s *served) scrape(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.hs.URL+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hs.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	return body, nil
}

// teeTransport keeps a copy of the last response body the client read,
// so the benchmark can compare response bytes while driving the service
// through the typed client. One request at a time (the client is
// serial).
type teeTransport struct {
	base http.RoundTripper
	buf  bytes.Buffer
}

func (t *teeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.buf.Reset()
	resp.Body = struct {
		io.Reader
		io.Closer
	}{io.TeeReader(resp.Body, &t.buf), resp.Body}
	return resp, nil
}

// direct is a serial client.Client of one server, keeping each
// response's bytes.
type direct struct {
	cl  *client.Client
	tee *teeTransport
	tr  *tracer
	n   int
}

func newDirect(s *served, tr *tracer) *direct {
	tee := &teeTransport{base: s.hs.Client().Transport}
	return &direct{cl: client.New(s.hs.URL, &http.Client{Transport: tee}), tee: tee, tr: tr}
}

// reqID mints the next X-Trace-Id of this client.
func (d *direct) reqID() string {
	d.n++
	return "bench-" + strconv.Itoa(d.n)
}

// submit sends one sweep and returns the decoded submission, the raw
// response bytes, and the latency to the last result row decoded and
// to the first.
func (d *direct) submit(ctx context.Context, class string, sw wire.Sweep, workers int) (
	sub *client.Submission, body []byte, lat, ttfr time.Duration, err error) {
	id := d.reqID()
	cl := d.cl.WithTraceID(id)
	spanStart := d.tr.now()
	start := time.Now()
	sub, err = cl.SubmitSweep(ctx, sw, client.SubmitOptions{Workers: workers}, func(wire.Result) {
		if ttfr == 0 {
			ttfr = time.Since(start)
		}
	})
	lat = time.Since(start)
	d.tr.add(span{Name: spanRequest, Class: class, Req: id, Start: spanStart, End: d.tr.now()})
	if err != nil {
		return nil, nil, lat, ttfr, err
	}
	return sub, append([]byte(nil), d.tee.buf.Bytes()...), lat, ttfr, nil
}

func (d *direct) bisect(ctx context.Context, class string, req wire.BisectRequest) (
	*wire.BisectResponse, time.Duration, error) {
	id := d.reqID()
	spanStart := d.tr.now()
	start := time.Now()
	resp, err := d.cl.WithTraceID(id).Bisect(ctx, req)
	lat := time.Since(start)
	d.tr.add(span{Name: spanRequest, Class: class, Req: id, Start: spanStart, End: d.tr.now()})
	return resp, lat, err
}

// --- output checks ---

// checkRows verifies a sweep response: one row per cell, in order, no
// err rows, metadata and horizon echoed, trajectories where asked.
func checkRows(sw wire.Sweep, hdr wire.StreamHeader, rows []wire.Result) error {
	if hdr.Jobs != len(sw.Jobs) || len(rows) != len(sw.Jobs) {
		return fmt.Errorf("row count: header %d, rows %d, want %d", hdr.Jobs, len(rows), len(sw.Jobs))
	}
	for i, r := range rows {
		j := sw.Jobs[i]
		switch {
		case r.Index != i:
			return fmt.Errorf("row %d has index %d", i, r.Index)
		case r.Err != "":
			return fmt.Errorf("row %d failed: %s", i, r.Err)
		case r.Report == nil || r.Report.Rounds != uint64(j.Rounds):
			return fmt.Errorf("row %d: missing report or wrong horizon", i)
		case !slices.Equal(r.Meta, j.Meta):
			return fmt.Errorf("row %d: meta %v, want %v", i, r.Meta, j.Meta)
		case j.Trajectory != (r.Trajectory != ""):
			return fmt.Errorf("row %d: trajectory presence %v, want %v", i, r.Trajectory != "", j.Trajectory)
		}
	}
	return nil
}

// antRounds is the simulation work of the sweep's cells.
func antRounds(jobs []wire.Job) int64 {
	var n int64
	for _, j := range jobs {
		n += int64(j.Config.Ants) * int64(j.Rounds)
	}
	return n
}

// --- colony-cold ---

// colonyCold: every request is a new sweep of two 10^5-ant colonies run
// side by side, so the engine step does nearly all the work.
type colonyCold struct {
	seed uint64
	tr   *tracer
	s    *served
	d    *direct
	i    int
	// first is the first timed request and its response, kept for the
	// traced run's layer measurements.
	first     wire.Sweep
	firstBody []byte
}

func (w *colonyCold) setup(ctx context.Context) error {
	n := runtime.NumCPU()
	s, err := startServer(simserver.Options{Workers: n, MaxConcurrent: n}, w.tr, spanHandler, "")
	if err != nil {
		return err
	}
	w.s, w.d = s, newDirect(s, w.tr)
	if smp := w.send(ctx, colonySweep(w.seed, warmupIndex)); smp.err != nil {
		return fmt.Errorf("warm-up: %w", smp.err)
	}
	return nil
}

func (w *colonyCold) send(ctx context.Context, sw wire.Sweep) sample {
	smp := sample{class: classSweep}
	sub, body, lat, ttfr, err := w.d.submit(ctx, smp.class, sw, runtime.NumCPU())
	smp.lat, smp.ttfr = lat, ttfr
	if err == nil && sub.Disposition != "miss" {
		err = fmt.Errorf("cold sweep served as %q", sub.Disposition)
	}
	if err == nil {
		err = checkRows(sw, sub.Header, sub.Results)
	}
	if err != nil {
		smp.err = err
		return smp
	}
	if w.first.Jobs == nil && w.i > 0 {
		w.first, w.firstBody = sw, body
	}
	smp.cells, smp.antRounds = len(sw.Jobs), antRounds(sw.Jobs)
	return smp
}

func (w *colonyCold) do(ctx context.Context) sample {
	sw := colonySweep(w.seed, w.i)
	w.i++
	return w.send(ctx, sw)
}

func (w *colonyCold) finish(context.Context) error { return nil }

func (w *colonyCold) close() {
	if w.s != nil {
		w.s.close()
	}
}

// --- grid-fanout ---

// gridFanout: every request is a new 24-cell sweep of small mixed-
// scenario colonies through the coordinator, so per-cell costs (wire,
// hashing, scheduling, render, decode, partition/steal/merge) dominate.
type gridFanout struct {
	seed     uint64
	tr       *tracer
	backends []*served
	single   *direct // client of backend 0, for single-host comparisons
	coord    *gridcoord.Coordinator
	reg      *obs.Registry
	i        int

	last    wire.Sweep // last timed request and its merged bytes
	lastOut []byte
	runs    []gridcoord.Stats
}

func (w *gridFanout) setup(ctx context.Context) error {
	if err := w.start(); err != nil {
		return err
	}
	if smp := w.send(ctx, gridSweep(w.seed, warmupIndex)); smp.err != nil {
		return fmt.Errorf("warm-up: %w", smp.err)
	}
	return nil
}

// start boots nproc single-worker backends and the coordinator.
func (w *gridFanout) start() error {
	n := runtime.NumCPU()
	var urls []string
	for b := 0; b < n; b++ {
		s, err := startServer(simserver.Options{Workers: 1, MaxConcurrent: 1}, w.tr, spanBackend, "b"+strconv.Itoa(b))
		if err != nil {
			return err
		}
		w.backends = append(w.backends, s)
		urls = append(urls, s.hs.URL)
	}
	w.single = newDirect(w.backends[0], w.tr)
	// Equal explicit weights: the initial placement is a function of the
	// request alone, not of throughput learned from earlier runs.
	weights := make([]float64, n)
	for b := range weights {
		weights[b] = 1
	}
	w.reg = obs.NewRegistry()
	coord, err := gridcoord.New(gridcoord.Options{
		Backends: urls, Weights: weights, Registry: w.reg,
		HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * n}},
	})
	if err != nil {
		return err
	}
	w.coord = coord
	return nil
}

// run sends one sweep through the coordinator while a client decodes the
// merged stream as it is written, as a caller of simgrid would.
func (w *gridFanout) run(ctx context.Context, sw wire.Sweep) (sub *client.Submission, out []byte,
	st gridcoord.Stats, lat, ttfr time.Duration, err error) {
	pr, pw := io.Pipe()
	var buf bytes.Buffer
	type decoded struct {
		sub *client.Submission
		err error
	}
	done := make(chan decoded, 1)
	spanStart := w.tr.now()
	start := time.Now()
	go func() {
		s, err := client.DecodeStream(io.TeeReader(pr, &buf), 0, false, func(wire.Result) {
			if ttfr == 0 {
				ttfr = time.Since(start)
			}
		})
		io.Copy(io.Discard, pr) // unblock the writer after a decode error
		done <- decoded{s, err}
	}()
	runStart := w.tr.now()
	st, err = w.coord.Run(ctx, sw, gridcoord.FormatNDJSON, pw)
	runEnd := w.tr.now()
	pw.CloseWithError(err)
	d := <-done
	lat = time.Since(start)
	parent := w.tr.add(span{Name: spanRequest, Class: classSweep, Req: st.TraceID, Start: spanStart, End: w.tr.now()})
	w.tr.add(span{Name: spanCoordRun, Parent: parent, Req: st.TraceID, Start: runStart, End: runEnd})
	if err == nil {
		err = d.err
	}
	return d.sub, buf.Bytes(), st, lat, ttfr, err
}

func (w *gridFanout) send(ctx context.Context, sw wire.Sweep) sample {
	smp := sample{class: classSweep}
	sub, out, st, lat, ttfr, err := w.run(ctx, sw)
	smp.lat, smp.ttfr = lat, ttfr
	if err == nil {
		err = checkRows(sw, sub.Header, sub.Results)
	}
	if err == nil && (st.Retried != 0 || st.BackendsLost != 0) {
		err = fmt.Errorf("coordinator retried %d jobs, lost %d backends", st.Retried, st.BackendsLost)
	}
	if err != nil {
		smp.err = err
		return smp
	}
	w.last, w.lastOut = sw, out
	w.runs = append(w.runs, st)
	smp.cells, smp.antRounds = len(sw.Jobs), antRounds(sw.Jobs)
	return smp
}

func (w *gridFanout) do(ctx context.Context) sample {
	sw := gridSweep(w.seed, w.i)
	w.i++
	return w.send(ctx, sw)
}

// finish checks that the last merged response is byte-identical to the
// same sweep served whole by one backend, and lints the coordinator's
// metric exposition.
func (w *gridFanout) finish(ctx context.Context) error {
	if w.lastOut == nil {
		return fmt.Errorf("no grid request completed")
	}
	body, err := w.singleHost(ctx, w.last)
	if err != nil {
		return err
	}
	if err := sameBytes(w.lastOut, body); err != nil {
		return fmt.Errorf("merged grid output differs from the single-host response: %w", err)
	}
	var exp bytes.Buffer
	if err := w.reg.Render(&exp); err != nil {
		return err
	}
	if problems := obs.Lint(exp.Bytes()); len(problems) > 0 {
		return fmt.Errorf("coordinator exposition fails lint: %v", problems)
	}
	return nil
}

// singleHost sends a sweep the backends have not seen whole to backend
// 0 and returns the response bytes.
func (w *gridFanout) singleHost(ctx context.Context, sw wire.Sweep) ([]byte, error) {
	sub, body, _, _, err := w.single.submit(ctx, "single", sw, 0)
	if err != nil {
		return nil, fmt.Errorf("single-host sweep: %w", err)
	}
	if sub.Disposition != "miss" {
		return nil, fmt.Errorf("single-host sweep served as %q", sub.Disposition)
	}
	return body, nil
}

// sameBytes reports where got first differs from want.
func sameBytes(got, want []byte) error {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("first difference at byte %d of %d", i, len(want))
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d bytes, want %d", len(got), len(want))
	}
	return nil
}

func (w *gridFanout) close() {
	for _, b := range w.backends {
		b.close()
	}
}

// --- store-mix ---

// storeMix: one durable server under a seeded mix of cold sweeps,
// behaviourally aliased repeats, cold and repeated γ-bisections and
// metric scrapes, so the store and cache layers handle writes beside
// reads.
type storeMix struct {
	seed uint64
	dir  string
	tr   *tracer
	s    *served
	d    *direct
	gen  *storeStream

	bodies map[int][]byte               // recent misses' responses, by stream index
	cold   map[int]*wire.BisectResponse // recent cold bisects' responses
	// Layer inputs kept for the traced run.
	firstMiss     wire.Sweep
	firstMissBody []byte
	firstBisect   wire.BisectRequest
}

// storePrefill is how many stream requests setup serves before timing
// (and at least until every class has been served once).
const storePrefill = 40

func (w *storeMix) setup(ctx context.Context) error {
	n := runtime.NumCPU()
	s, err := startServer(simserver.Options{
		Workers: n, MaxConcurrent: n,
		DataDir: filepath.Join(w.dir, "data"), CacheDir: filepath.Join(w.dir, "jobcache"),
	}, w.tr, spanHandler, "")
	if err != nil {
		return err
	}
	w.s, w.d = s, newDirect(s, w.tr)
	w.gen = newStoreStream(w.seed)
	w.bodies = map[int][]byte{}
	w.cold = map[int]*wire.BisectResponse{}
	seen := map[string]bool{}
	for w.gen.n < storePrefill || len(seen) < 5 {
		smp := w.do(ctx)
		if smp.err != nil {
			return fmt.Errorf("pre-fill request %d (%s): %w", w.gen.n-1, smp.class, smp.err)
		}
		seen[smp.class] = true
	}
	return nil
}

func (w *storeMix) do(ctx context.Context) sample {
	idx := w.gen.n
	q := w.gen.next()
	smp := sample{class: q.class}
	var err error
	switch q.class {
	case classMiss, classHit:
		var sub *client.Submission
		var body []byte
		sub, body, smp.lat, smp.ttfr, err = w.d.submit(ctx, q.class, q.sweep, 0)
		want := map[string]string{classMiss: "miss", classHit: "hit"}[q.class]
		if err == nil && sub.Disposition != want {
			err = fmt.Errorf("%s served as %q", q.class, sub.Disposition)
		}
		if err == nil {
			err = checkRows(q.sweep, sub.Header, sub.Results)
		}
		if err != nil {
			break
		}
		if q.class == classMiss {
			w.bodies[idx] = body
			forget(w.bodies, w.gen.misses)
			smp.antRounds = antRounds(q.sweep.Jobs)
			if w.firstMiss.Jobs == nil {
				w.firstMiss, w.firstMissBody = q.sweep, body
			}
		} else if err = sameBytes(body, w.bodies[q.target]); err != nil {
			err = fmt.Errorf("hit body differs from the response that created the entry (request %d): %w", q.target, err)
		}
		smp.cells = len(q.sweep.Jobs)
	case classBisect, classRebisect:
		var resp *wire.BisectResponse
		resp, smp.lat, err = w.d.bisect(ctx, q.class, q.bisect)
		if err == nil {
			err = checkBisect(q, resp, w.cold[q.target])
		}
		if err != nil {
			break
		}
		if q.class == classBisect {
			w.cold[idx] = resp
			forget(w.cold, w.gen.bisects)
			smp.antRounds = int64(resp.Evals-resp.CacheHits) * storeAnts * storeRounds
			if w.firstBisect.Job.Config.Ants == 0 {
				w.firstBisect = q.bisect
			}
		}
		smp.cells = len(resp.Cells)
	case classScrape:
		start := time.Now()
		var body []byte
		body, err = w.s.scrape(ctx)
		smp.lat = time.Since(start)
		if err == nil {
			if problems := obs.Lint(body); len(problems) > 0 {
				err = fmt.Errorf("exposition fails lint: %v", problems)
			}
		}
	}
	smp.err = err
	return smp
}

// checkBisect verifies a bisect response: the full budget spent, cells
// in ascending γ with reports, and the cache provenance the class
// implies. A rebisect must equal its cold response apart from that
// provenance.
func checkBisect(q *storeReq, resp *wire.BisectResponse, cold *wire.BisectResponse) error {
	if resp.Evals != storeMaxEvals || len(resp.Cells) != storeMaxEvals {
		return fmt.Errorf("%s: %d evals, %d cells, want %d", q.class, resp.Evals, len(resp.Cells), storeMaxEvals)
	}
	for i, c := range resp.Cells {
		if c.Err != "" || c.Report == nil {
			return fmt.Errorf("%s: cell %d (γ=%g) failed: %q", q.class, i, c.Gamma, c.Err)
		}
		if i > 0 && c.Gamma <= resp.Cells[i-1].Gamma {
			return fmt.Errorf("%s: cells not in ascending γ order", q.class)
		}
	}
	wantHits := 1 // the first midpoint is the catalog cell a miss served
	if q.class == classRebisect {
		wantHits = storeMaxEvals
	}
	if resp.CacheHits != wantHits {
		return fmt.Errorf("%s: %d cache hits, want %d", q.class, resp.CacheHits, wantHits)
	}
	if q.class != classRebisect {
		return nil
	}
	if cold == nil {
		return fmt.Errorf("rebisect of request %d: no cold response kept", q.target)
	}
	a, err := stripProvenance(resp)
	if err != nil {
		return err
	}
	b, err := stripProvenance(cold)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("rebisect of request %d differs from its cold response", q.target)
	}
	return nil
}

// stripProvenance renders a bisect response without its cache-
// provenance fields (per-cell cached flags and the hit count).
func stripProvenance(r *wire.BisectResponse) ([]byte, error) {
	c := *r
	c.CacheHits = 0
	c.Cells = append([]wire.BisectCell(nil), r.Cells...)
	for i := range c.Cells {
		c.Cells[i].Cached = false
	}
	return json.Marshal(c)
}

func (w *storeMix) finish(context.Context) error { return nil }

func (w *storeMix) close() {
	if w.s != nil {
		w.s.close()
	}
}

// bisectAround is a bisect over a cell's template: γ from half the
// cell's to twice it, with the store-mix band and a budget of 5
// evaluations (a colony-cold cell takes seconds).
func bisectAround(j wire.Job) wire.BisectRequest {
	g := j.Config.Gamma
	return wire.BisectRequest{
		Version: wire.V1, Job: j, GammaLo: g / 2, GammaHi: min(2*g, agent.MaxGamma),
		TargetBand: storeTargetBand, MaxEvals: 5,
	}
}

func (w *colonyCold) layerInputs(dir string) (layerInputs, error) {
	if w.first.Jobs == nil {
		return layerInputs{}, fmt.Errorf("no timed colony request completed")
	}
	return layerInputs{sweep: w.first, body: w.firstBody, bis: bisectAround(w.first.Jobs[0]), dir: dir}, nil
}

func (w *colonyCold) period() int { return 1 }

func (w *colonyCold) servers() []*served { return []*served{w.s} }

func (w *gridFanout) layerInputs(dir string) (layerInputs, error) {
	if w.lastOut == nil {
		return layerInputs{}, fmt.Errorf("no timed grid request completed")
	}
	singles := []wire.Sweep{gridSweep(w.seed, 0), gridSweep(w.seed, 1), gridSweep(w.seed, 2)}
	return layerInputs{sweep: w.last, body: w.lastOut, bis: bisectAround(w.last.Jobs[0]),
		fleet: w, singles: singles, dir: dir}, nil
}

func (w *gridFanout) period() int { return 1 }

func (w *gridFanout) servers() []*served { return w.backends }

func (w *storeMix) layerInputs(dir string) (layerInputs, error) {
	if w.firstMiss.Jobs == nil || w.firstBisect.Job.Config.Ants == 0 {
		return layerInputs{}, fmt.Errorf("no timed miss or bisect completed")
	}
	return layerInputs{sweep: w.firstMiss, body: w.firstMissBody, bis: w.firstBisect, dir: dir}, nil
}

func (w *storeMix) period() int { return storePeriod }

func (w *storeMix) servers() []*served { return []*served{w.s} }
