package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"taskalloc"
	"taskalloc/internal/bisect"
	"taskalloc/internal/demand"
	"taskalloc/internal/gridcoord"
	"taskalloc/internal/obs"
	"taskalloc/internal/scenario"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/store"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// perLayer are the traced run's metrics, reported on every workload:
// each layer is timed on the workload's own generated inputs, read from
// the servers' stage histograms, or taken from the benchmark's spans.
var perLayer = []metricDef{
	{"engine.run_ns_per_ant_round", "ns"},
	{"engine.shard_speedup", "ratio"},
	{"engine.new_us_per_job", "us"},
	{"engine.alloc_kb_per_job", "KiB"},
	{"sweeprun.busy_frac", "ratio"},
	{"sweeprun.queue_wait_us", "us"},
	{"wire.encode_us_per_job", "us"},
	{"wire.decode_us_per_job", "us"},
	{"wire.semhash_us_per_job", "us"},
	{"scenario.canon_us_per_job", "us"},
	{"client.decode_us_per_result", "us"},
	{"simserver.handler_ms", "ms"},
	{"simserver.http_overhead_ms", "ms"},
	{"simserver.admission_us", "us"},
	{"simserver.cache_lookup_us", "us"},
	{"simserver.render_us_per_cell", "us"},
	{"simserver.engine_run_ms", "ms"},
	{"simserver.cells_simulated_frac", "ratio"},
	{"store.append_us", "us"},
	{"store.load_us_per_job", "us"},
	{"store.blob_get_us", "us"},
	{"store.blob_put_us", "us"},
	{"store.disk_bytes_per_job", "B"},
	{"gridcoord.overhead_ms", "ms"},
	{"gridcoord.single_host_ms", "ms"},
	{"gridcoord.partition_us", "us"},
	{"gridcoord.steals_per_run", "count"},
	{"gridcoord.delivered_max_over_mean", "ratio"},
	{"bisect.evals_per_request", "count"},
	{"bisect.self_ms", "ms"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_kb", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_per_1k_jobs", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// layerInputs are the workload's own inputs the layer timings run on.
type layerInputs struct {
	sweep wire.Sweep         // one cold sweep the workload served
	body  []byte             // its NDJSON response bytes
	bis   wire.BisectRequest // one bisect over the workload's cells
	// fleet carries the coordinator runs the gridcoord metrics read, and
	// singles the sweeps it ran to send whole to one backend; a nil fleet
	// makes the layer pass run the sweep through an nproc-backend side
	// fleet.
	fleet   *gridFanout
	singles []wire.Sweep
	dir     string // scratch directory for the store layer
}

// checks counts the output checks the traced run adds.
type checks struct {
	attempted, failed int
	problems          []string
}

func (c *checks) add(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.problems = append(c.problems, what+": "+err.Error())
	}
}

// meanTime runs fn until at least minDur has passed (once at least)
// and returns the mean duration per call.
func meanTime(minDur time.Duration, fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < minDur {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

const microWindow = 50 * time.Millisecond

// measureLayers times every layer on in and fills m.
func measureLayers(ctx context.Context, tr *tracer, in layerInputs, m map[string]float64, ck *checks) error {
	rows, err := client.DecodeStream(bytes.NewReader(in.body), 0, false, nil)
	if err != nil {
		return fmt.Errorf("decode captured stream: %w", err)
	}
	sjobs, err := wire.ToJobs(in.sweep)
	if err != nil {
		return err
	}
	pool := taskalloc.NewWorkerPool()
	defer pool.Close()
	if err := measureEngine(sjobs, rows.Results, pool, m, ck); err != nil {
		return fmt.Errorf("engine layer: %w", err)
	}
	measureSweeprun(sjobs, pool, m)
	if err := measureWire(in, sjobs, m); err != nil {
		return fmt.Errorf("wire layer: %w", err)
	}
	if err := measureStore(in, rows.Results, m); err != nil {
		return fmt.Errorf("store layer: %w", err)
	}
	if err := measureBisect(in.bis, pool, m); err != nil {
		return fmt.Errorf("bisect layer: %w", err)
	}
	return measureGrid(ctx, tr, in, m, ck)
}

// measureEngine re-simulates every cell, checking each against the
// served report, and times the first cell at one shard and at
// benchShards.
func measureEngine(jobs []sweeprun.Job, served []wire.Result, pool *taskalloc.WorkerPool,
	m map[string]float64, ck *checks) error {
	var newT, runT time.Duration
	var work float64
	before := readRuntime()
	for i, job := range jobs {
		cfg := job.Config
		cfg.Pool = pool
		t0 := time.Now()
		sim, err := taskalloc.New(cfg)
		if err != nil {
			return err
		}
		t1 := time.Now()
		sim.Run(job.Rounds, nil)
		t2 := time.Now()
		rep := sim.Report()
		sim.Close()
		newT += t1.Sub(t0)
		runT += t2.Sub(t1)
		work += float64(cfg.Ants) * float64(job.Rounds)
		got, _ := json.Marshal(rep)
		want, _ := json.Marshal(served[i].Report)
		var mismatch error
		if !bytes.Equal(got, want) {
			mismatch = fmt.Errorf("report %s, served %s", got, want)
		}
		ck.add("re-simulated cell "+strconv.Itoa(i), mismatch)
	}
	after := readRuntime()
	n := float64(len(jobs))
	m["engine.run_ns_per_ant_round"] = float64(runT.Nanoseconds()) / work
	m["engine.new_us_per_job"] = us(newT) / n
	m["engine.alloc_kb_per_job"] = (after.allocBytes - before.allocBytes) / 1024 / n

	shardRun := func(shards int) (time.Duration, error) {
		cfg := jobs[0].Config
		cfg.Shards, cfg.Pool = shards, pool
		sim, err := taskalloc.New(cfg)
		if err != nil {
			return 0, err
		}
		defer sim.Close()
		t0 := time.Now()
		sim.Run(jobs[0].Rounds, nil)
		return time.Since(t0), nil
	}
	one, err := shardRun(1)
	if err != nil {
		return err
	}
	many, err := shardRun(benchShards)
	if err != nil {
		return err
	}
	m["engine.shard_speedup"] = float64(one) / float64(many)
	return nil
}

// measureSweeprun runs the cells on nproc sweeprun workers: the busy
// fraction is Σ run time ÷ (wall time × workers).
func measureSweeprun(jobs []sweeprun.Job, pool *taskalloc.WorkerPool, m map[string]float64) {
	workers := runtime.NumCPU()
	var (
		mu   sync.Mutex
		busy time.Duration
	)
	t0 := time.Now()
	sweeprun.Run(jobs, sweeprun.Options{Workers: workers, Pool: pool, OnTiming: func(t sweeprun.Timing) {
		mu.Lock()
		busy += t.Run
		mu.Unlock()
	}})
	m["sweeprun.busy_frac"] = float64(busy) / (float64(time.Since(t0)) * float64(workers))
}

// measureWire times the request document's codec and hashes, the
// schedules' canonicalization, the response stream's decode, and the
// coordinator's partition of the cells.
func measureWire(in layerInputs, jobs []sweeprun.Job, m map[string]float64) error {
	n := float64(len(in.sweep.Jobs))
	doc, err := wire.MarshalSweep(in.sweep)
	if err != nil {
		return err
	}
	m["wire.encode_us_per_job"] = us(meanTime(microWindow, func() { wire.MarshalSweep(in.sweep) })) / n
	m["wire.decode_us_per_job"] = us(meanTime(microWindow, func() { wire.DecodeSweep(bytes.NewReader(doc)) })) / n
	m["wire.semhash_us_per_job"] = us(meanTime(microWindow, func() { wire.SemanticSweepHash(in.sweep) })) / n
	var canonT time.Duration
	for _, j := range jobs {
		sched := j.Config.Demand
		if sched == nil {
			sched = demand.Static{V: demand.Vector(j.Config.Demands)}
		}
		canonT += meanTime(microWindow/10, func() { scenario.Canon(sched) })
	}
	m["scenario.canon_us_per_job"] = us(canonT) / n
	m["client.decode_us_per_result"] = us(meanTime(microWindow, func() {
		client.DecodeStream(bytes.NewReader(in.body), 0, false, nil)
	})) / n
	m["gridcoord.partition_us"] = us(meanTime(microWindow, func() {
		gridcoord.Partition(in.sweep.Jobs, runtime.NumCPU())
	}))
	return nil
}

// measureBisect runs the search with the engine as its evaluator: the
// search's own time is the run time minus the evaluator's.
func measureBisect(req wire.BisectRequest, pool *taskalloc.WorkerPool, m map[string]float64) error {
	var evalT time.Duration
	t0 := time.Now()
	resp, err := bisect.Run(req, func(gammas []float64) ([]wire.BisectCell, error) {
		e0 := time.Now()
		defer func() { evalT += time.Since(e0) }()
		cells := make([]wire.BisectCell, len(gammas))
		for i, g := range gammas {
			wj := req.Job
			wj.Config.Gamma = g
			job, err := wj.ToJob()
			if err != nil {
				return nil, err
			}
			res := sweeprun.Run([]sweeprun.Job{job}, sweeprun.Options{Workers: 1, Pool: pool})[0]
			cells[i] = wire.BisectCell{Gamma: g}
			if res.Err != nil {
				cells[i].Err = res.Err.Error()
			} else {
				rep := res.Report
				cells[i].Report = &rep
			}
		}
		return cells, nil
	})
	if err != nil {
		return err
	}
	m["bisect.evals_per_request"] = float64(resp.Evals)
	m["bisect.self_ms"] = ms(time.Since(t0) - evalT)
	return nil
}

// measureGrid reads the coordinator's runs and times sweeps the
// coordinator ran sent whole to one backend. Without a fleet of its own
// the workload's sweep goes through a side fleet first.
func measureGrid(ctx context.Context, tr *tracer, in layerInputs, m map[string]float64, ck *checks) error {
	fleet, singles := in.fleet, in.singles
	if fleet == nil {
		fleet = &gridFanout{tr: tr}
		defer fleet.close()
		if err := fleet.start(); err != nil {
			return err
		}
		ck.add("side-fleet sweep", fleet.send(ctx, in.sweep).err)
		start := time.Now()
		ck.add("side-fleet single-host bytes", fleet.finish(ctx))
		m["gridcoord.single_host_ms"] = ms(time.Since(start))
	}
	var single []float64
	for _, sw := range singles {
		start := time.Now()
		_, err := fleet.singleHost(ctx, sw)
		single = append(single, ms(time.Since(start)))
		ck.add("single-host sweep", err)
	}
	if len(single) > 0 {
		m["gridcoord.single_host_ms"] = median(single)
	}
	if len(fleet.runs) == 0 {
		return fmt.Errorf("no coordinator run completed")
	}
	var steals, skew float64
	for _, st := range fleet.runs {
		steals += float64(st.Steals)
		mx, sum := 0, 0
		for _, d := range st.Delivered {
			mx, sum = max(mx, d), sum+d
		}
		skew += float64(mx) * float64(len(st.Delivered)) / float64(sum)
	}
	m["gridcoord.steals_per_run"] = steals / float64(len(fleet.runs))
	m["gridcoord.delivered_max_over_mean"] = skew / float64(len(fleet.runs))
	return nil
}

// measureStore times the durability layer on the workload's own
// records: each served result row journaled as the service journals a
// sweep, then recovered, and each cell's report put in and read back
// from the disk job cache.
func measureStore(in layerInputs, rows []wire.Result, m map[string]float64) error {
	st, err := store.Open(filepath.Join(in.dir, "journals"), store.Options{})
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(in.body), []byte("\n"))
	const copies = 8
	var appendT, loadT time.Duration
	for c := 0; c < copies; c++ {
		id := fmt.Sprintf("%064x", c+1)
		j, err := st.Create(id, lines[0])
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, l := range lines[1:] {
			if err := j.Append(l); err != nil {
				return err
			}
		}
		appendT += time.Since(t0)
		if err := j.Commit(nil); err != nil {
			return err
		}
		t0 = time.Now()
		rec, err := st.Load(id)
		loadT += time.Since(t0)
		if err != nil {
			return err
		}
		if len(rec.Records) != len(lines)-1 || !rec.Complete {
			return fmt.Errorf("recovered %d records (complete %v), want %d", len(rec.Records), rec.Complete, len(lines)-1)
		}
	}
	n := float64(copies * (len(lines) - 1))
	m["store.append_us"] = us(appendT) / n
	m["store.load_us_per_job"] = us(loadT) / n
	_, diskBytes := st.Stats()
	m["store.disk_bytes_per_job"] = float64(diskBytes) / n

	bc, err := store.OpenBlobCache(filepath.Join(in.dir, "blobs"), 0)
	if err != nil {
		return err
	}
	var putT, getT time.Duration
	for i, r := range rows {
		key, err := wire.SemanticHash(in.sweep.Jobs[i])
		if err != nil {
			return err
		}
		payload, err := json.Marshal(r.Report)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := bc.Put(key, payload); err != nil {
			return err
		}
		putT += time.Since(t0)
		t0 = time.Now()
		got, ok := bc.Get(key)
		getT += time.Since(t0)
		if !ok || !bytes.Equal(got, payload) {
			return fmt.Errorf("blob %d did not read back", i)
		}
	}
	m["store.blob_put_us"] = us(putT) / float64(len(rows))
	m["store.blob_get_us"] = us(getT) / float64(len(rows))
	return nil
}

// spanMetrics derives the span-based per-layer metrics, and checks that
// the spans rebuild a direct request (client → handler) and a
// coordinator request (coordinator → every backend).
func spanMetrics(spans []span, backends int, m map[string]float64, ck *checks) {
	kids := children(spans)
	var handler, overhead, coord []float64
	rebuiltDirect, rebuiltGrid := false, false
	for _, s := range spans {
		switch s.Name {
		case spanRequest:
			ks := kids[s.ID]
			if len(ks) != 1 || (ks[0].Name != spanHandler && ks[0].Name != spanBackend) {
				continue
			}
			rebuiltDirect = true
			if s.Class == classSweep || s.Class == classMiss || s.Class == "single" {
				handler = append(handler, ms(ks[0].dur()))
				overhead = append(overhead, ms(selfTime(s, ks)))
			}
		case spanCoordRun:
			// A backend may serve several streams of one run (stolen
			// chunks): its busy time is the union of its spans.
			perBackend := map[string][]span{}
			for _, k := range kids[s.ID] {
				perBackend[k.Class] = append(perBackend[k.Class], k)
			}
			var busiest time.Duration
			for _, ks := range perBackend {
				busiest = max(busiest, s.dur()-selfTime(s, ks))
			}
			if len(perBackend) == backends {
				rebuiltGrid = true
			}
			coord = append(coord, ms(s.dur()-busiest))
		}
	}
	m["simserver.handler_ms"] = median(handler)
	m["simserver.http_overhead_ms"] = median(overhead)
	m["gridcoord.overhead_ms"] = median(coord)
	m["trace.spans"] = float64(len(spans))
	if !rebuiltDirect {
		ck.add("trace rebuild", fmt.Errorf("no client span with its handler span"))
	}
	if !rebuiltGrid {
		ck.add("trace rebuild", fmt.Errorf("no coordinator span with a span from every backend"))
	}
	if rebuiltDirect && rebuiltGrid {
		ck.add("trace rebuild", nil)
	}
}

// stageMetrics reads the servers' stage histograms over the traced
// phase (sum ÷ count per stage).
func stageMetrics(delta map[string]stageSum, cells int, m map[string]float64) {
	m["simserver.admission_us"] = delta["admission"].meanSeconds() * 1e6
	m["simserver.cache_lookup_us"] = delta["cache_lookup"].meanSeconds() * 1e6
	m["simserver.render_us_per_cell"] = delta["render"].meanSeconds() * 1e6
	m["simserver.engine_run_ms"] = delta["engine_run"].meanSeconds() * 1e3
	m["sweeprun.queue_wait_us"] = delta["queue_wait"].meanSeconds() * 1e6
	m["simserver.cells_simulated_frac"] = delta["engine_run"].count / float64(cells)
}

// scrapeAll sums the stage histograms of every server of the workload.
func scrapeAll(ctx context.Context, ss []*served) (map[string]stageSum, error) {
	total := map[string]stageSum{}
	for _, s := range ss {
		body, err := s.scrape(ctx)
		if err != nil {
			return nil, err
		}
		st, err := parseStages(body)
		if err != nil {
			return nil, err
		}
		addStages(total, st)
	}
	return total, nil
}

// perLayerMetrics assembles the traced run's metric set.
func perLayerMetrics(ctx context.Context, w workload, tr *tracer, untraced, traced phase,
	stages map[string]stageSum, dir string, o options, ck *checks) (map[string]float64, map[string]string, error) {
	m := map[string]float64{}
	in, err := w.layerInputs(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := measureLayers(ctx, tr, in, m, ck); err != nil {
		return nil, nil, err
	}
	cells, _ := traced.totals()
	stageMetrics(stages, cells, m)

	// obs: the exposition of the workload's first server.
	srv := w.servers()[0]
	var scrapeT []float64
	var size int
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		body, err := srv.scrape(ctx)
		if err != nil {
			return nil, nil, err
		}
		scrapeT = append(scrapeT, ms(time.Since(t0)))
		size = len(body)
		var lint error
		if problems := obs.Lint(body); len(problems) > 0 {
			lint = fmt.Errorf("%v", problems)
		}
		ck.add("exposition lint", lint)
	}
	m["obs.scrape_ms"] = median(scrapeT)
	m["obs.scrape_kb"] = float64(size) / 1024

	ucells, _ := untraced.totals()
	m["runtime.gc_cpu_frac"] = untraced.rt.gcCPU / untraced.rt.totalCPU
	m["runtime.gc_per_1k_jobs"] = untraced.rt.gcCycles / float64(ucells) * 1000
	m["trace.overhead_pct"] = (median(traced.latencies(coldClass, false))/
		median(untraced.latencies(coldClass, false)) - 1) * 100

	spans := tr.snapshot()
	spanMetrics(spans, runtime.NumCPU(), m, ck)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)

	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
		if _, ok := m[d.name]; !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s not measured", d.name)
		}
	}
	for k := range m {
		if _, ok := units[k]; !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s has no unit", k)
		}
	}
	return m, units, nil
}
