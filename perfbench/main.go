// Command perfbench is the repository's end-to-end benchmark. It drives
// one seeded workload through the public front doors of the simulation
// service (simserver behind httptest, called with the typed client) and
// the grid coordinator, checks every response, and prints its metrics
// as one JSON object on the last line of standard output. See README.md
// beside this file for the workloads, the metric glossary and the
// traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload colony-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run builds its workload from scratch at least setupRepeats times and
// until setupMinTotal has passed; setup_s is the median, and the last
// build serves the timed phase. The floor on total time gives a cheap
// set-up (grid-fanout's takes ~40 ms) enough repeats for a steady median.
const (
	setupRepeats  = 5
	setupMinTotal = time.Second
)

// The throughput metrics are the median over consecutive blocks of the
// timed phase, each block a whole number of stream periods lasting at
// least blockMin. A whole-phase mean takes in every slow stretch of the
// shared host; the median block leaves out stretches shorter than half
// the phase.
const blockMin = time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_p50_ms", "ms"},
	{"ttfr_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"mant_rounds_per_s", "1e6/s"},
	{"alloc_kb_per_job", "KiB"},
	{"peak_rss_mb", "MiB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "colony-cold, grid-fanout or store-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the only source of the generated requests")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: OUTPUT CHECK FAILED: %d of %d operations failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// phase is one timed window of the request stream.
type phase struct {
	samples []sample
	wall    time.Duration
	rt      runtimeSample // runtime counter deltas over the window
}

func timed(ctx context.Context, w workload, d time.Duration) phase {
	var p phase
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		s := w.do(ctx)
		s.end = time.Since(start)
		p.samples = append(p.samples, s)
	}
	p.wall = time.Since(start)
	after := readRuntime()
	p.rt = runtimeSample{
		allocBytes: after.allocBytes - before.allocBytes,
		gcCycles:   after.gcCycles - before.gcCycles,
		gcCPU:      after.gcCPU - before.gcCPU,
		totalCPU:   after.totalCPU - before.totalCPU,
	}
	return p
}

// coldClass is the workload's cold-sweep class.
func coldClass(s sample) bool { return s.class == classSweep || s.class == classMiss }

// latencies returns the successful samples' latencies (or times to
// first row) of one class, in ms.
func (p phase) latencies(keep func(sample) bool, ttfr bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err == nil && keep(s) {
			if ttfr {
				out = append(out, ms(s.ttfr))
			} else {
				out = append(out, ms(s.lat))
			}
		}
	}
	return out
}

func (p phase) totals() (cells int, antRounds int64) {
	for _, s := range p.samples {
		if s.err == nil {
			cells += s.cells
			antRounds += s.antRounds
		}
	}
	return cells, antRounds
}

// blockRates cuts the phase into consecutive blocks, each a multiple of
// period requests (so every block has the same class composition) that
// lasts at least blockMin, and returns each block's cells and millions
// of ant-rounds per second. The unfinished tail is dropped; a phase too
// short for one block is one block.
func (p phase) blockRates(period int) (jobs, mant []float64) {
	var (
		cells int
		ar    int64
		from  time.Duration
	)
	for i, s := range p.samples {
		if s.err == nil {
			cells += s.cells
			ar += s.antRounds
		}
		if (i+1)%period != 0 || s.end-from < blockMin {
			continue
		}
		sec := (s.end - from).Seconds()
		jobs = append(jobs, float64(cells)/sec)
		mant = append(mant, float64(ar)/sec/1e6)
		cells, ar, from = 0, 0, s.end
	}
	if len(jobs) == 0 {
		cells, ar := p.totals()
		sec := p.wall.Seconds()
		return []float64{float64(cells) / sec}, []float64{float64(ar) / sec / 1e6}
	}
	return jobs, mant
}

// endToEndMetrics computes the untraced metric set over one phase of a
// stream whose class mix repeats every period requests.
func endToEndMetrics(p phase, period int, setup float64) (map[string]float64, error) {
	cells, _ := p.totals()
	cold := p.latencies(coldClass, false)
	if len(cold) == 0 || cells == 0 {
		return nil, fmt.Errorf("no cold sweep completed in the timed phase")
	}
	rss, err := peakRSSKiB()
	if err != nil {
		return nil, err
	}
	jobs, mant := p.blockRates(period)
	return map[string]float64{
		"setup_s":           setup,
		"sweep_p50_ms":      median(cold),
		"ttfr_p50_ms":       median(p.latencies(coldClass, true)),
		"jobs_per_s":        median(jobs),
		"mant_rounds_per_s": median(mant),
		"alloc_kb_per_job":  p.rt.allocBytes / 1024 / float64(cells),
		"peak_rss_mb":       rss / 1024,
	}, nil
}

// classReport summarizes each request class of a phase for the
// diagnostic line: sample count, median, and the highest percentile
// with at least ten samples beyond it. No summary pools two classes.
func classReport(p phase) map[string]map[string]any {
	out := map[string]map[string]any{}
	classes := map[string]bool{}
	for _, s := range p.samples {
		classes[s.class] = true
	}
	for c := range classes {
		lat := p.latencies(func(s sample) bool { return s.class == c }, false)
		r := map[string]any{"n": len(lat)}
		if len(lat) > 0 {
			r["p50_ms"] = median(lat)
		}
		if q, ok := tailPercentile(len(lat)); ok {
			r[fmt.Sprintf("p%g_ms", q)] = percentile(lat, q)
		}
		if len(lat) < 20 { // too few for a tail: show them all
			r["each_ms"] = lat
		}
		out[c] = r
	}
	return out
}

func run(o options) (*result, error) {
	// Everything the run writes stays under the checkout's build
	// directory, and the run's own part of it is removed on exit.
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	digest, err := streamDigest(o.workload, o.seed, 64)
	if err != nil {
		return nil, err
	}
	// Whatever hangs, the run ends (and reports its failures) within the
	// 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	probeBefore := probe()
	tr := newTracer()
	var (
		w      workload
		setups []float64
	)
	for k, begun := 0, time.Now(); k < setupRepeats || time.Since(begun) < setupMinTotal; k++ {
		if w != nil {
			w.close()
		}
		w, err = newWorkload(o.workload, o.seed, filepath.Join(dir, fmt.Sprintf("setup-%d", k)), tr)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	setup := median(setups)

	window := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		window /= 2 // untraced half, then traced half
	}
	p := timed(ctx, w, window)
	var (
		traced phase
		stages map[string]stageSum // stage histogram activity over the traced phase
	)
	if o.trace == 1 {
		before, err := scrapeAll(ctx, w.servers())
		if err != nil {
			return nil, err
		}
		tr.on.Store(true)
		traced = timed(ctx, w, window)
		after, err := scrapeAll(ctx, w.servers())
		if err != nil {
			return nil, err
		}
		stages = subStages(after, before)
	}
	res := &result{Metrics: map[string]metric{}}
	var problems []string
	for _, ph := range []phase{p, traced} {
		for _, s := range ph.samples {
			res.Attempted++
			if s.err != nil {
				res.Failed++
				problems = append(problems, fmt.Sprintf("%s: %v", s.class, s.err))
			}
		}
	}
	res.Attempted++ // the once-per-run checks
	if err := w.finish(ctx); err != nil {
		res.Failed++
		problems = append(problems, "finish: "+err.Error())
	}

	e2e, err := endToEndMetrics(p, w.period(), setup)
	if err != nil {
		return nil, err
	}
	values, units := e2e, map[string]string{}
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	diag := map[string]any{}
	if o.trace == 1 {
		var ck checks
		values, units, err = perLayerMetrics(ctx, w, tr, p, traced, stages, filepath.Join(dir, "layers"), o, &ck)
		if err != nil {
			return nil, err
		}
		res.Attempted += ck.attempted
		res.Failed += ck.failed
		problems = append(problems, ck.problems...)
		// The tracing overhead: the traced half's end-to-end numbers
		// beside the untraced half's.
		diag["untraced_half"] = e2e
		if diag["traced_half"], err = endToEndMetrics(traced, w.period(), setup); err != nil {
			return nil, err
		}
		if j := stages["journal_append"]; j.count > 0 {
			diag["simserver.journal_append_us"] = j.meanSeconds() * 1e6
		}
	}
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	res.Correct = res.Failed == 0

	sort.Strings(problems)
	for i, pr := range problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(problems)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", pr)
	}
	blockJobs, _ := p.blockRates(w.period())
	cells, _ := p.totals()
	for k, v := range map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"stream_sha256": digest, "setup_s_each": setups, "classes": classReport(p),
		"host_probe_ms": []float64{ms(probeBefore), ms(probe())},
		"nproc":         runtime.NumCPU(), "timed_wall_s": p.wall.Seconds(),
		"jobs_per_s_blocks": blockJobs, "jobs_per_s_whole_phase": float64(cells) / p.wall.Seconds(),
	} {
		diag[k] = v
	}
	b, err := json.Marshal(diag)
	if err != nil {
		return nil, err
	}
	fmt.Println("perfbench diag " + strings.TrimSpace(string(b)))
	return res, nil
}
