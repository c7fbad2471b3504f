package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

var workloads = []string{"colony-cold", "grid-fanout", "store-mix"}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, wl := range workloads {
		a, err := streamDigest(wl, 7, 200)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamDigest(wl, 7, 200)
		c, _ := streamDigest(wl, 8, 200)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", wl)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl)
		}
	}
}

// shape is everything about a cell except the values a seed draws.
func shape(j wire.Job) string {
	kind := "demands"
	tasks := len(j.Config.Demands)
	if sc := j.Config.Schedule; sc != nil {
		kind = sc.Kind
		tasks = len(sc.Base)
		if sc.Inner != nil {
			tasks = len(sc.Inner.Base)
		} else if len(sc.Parts) > 0 {
			tasks = len(sc.Parts[0].Base)
		}
	}
	return fmt.Sprintf("%d/%d/%d/%s/%v/%d/%s", j.Config.Ants, j.Rounds, tasks, kind,
		j.Trajectory, j.Config.Shards, j.Config.Algorithm)
}

func sweepShape(s wire.Sweep) string {
	var parts []string
	for _, j := range s.Jobs {
		parts = append(parts, shape(j))
	}
	return strings.Join(parts, " ")
}

// TestClassCompositionFixed checks that every request of a class has the
// same cell count and cell shapes, on two seeds.
func TestClassCompositionFixed(t *testing.T) {
	want := map[string]string{}
	check := func(seed uint64, class, got string) {
		t.Helper()
		if w, ok := want[class]; !ok {
			want[class] = got
		} else if got != w {
			t.Fatalf("seed %d, class %s: shape\n%s\nwant\n%s", seed, class, got, w)
		}
	}
	for _, seed := range []uint64{1, 2} {
		for i := 0; i < 50; i++ {
			check(seed, "colony", sweepShape(colonySweep(seed, i)))
			check(seed, "grid", sweepShape(gridSweep(seed, i)))
		}
		g := newStoreStream(seed)
		seen := map[string]int{}
		for i := 0; i < 400; i++ {
			q := g.next()
			seen[q.class]++
			switch q.class {
			case classMiss, classHit:
				// A hit re-spells some cells (frozen schedule, default
				// algorithm); its shape is fixed too, but its own.
				check(seed, q.class, sweepShape(q.sweep))
			case classBisect, classRebisect:
				check(seed, q.class, fmt.Sprintf("%s %g %d", shape(q.bisect.Job),
					q.bisect.TargetBand, q.bisect.MaxEvals))
			}
		}
		for _, c := range []string{classMiss, classHit, classBisect, classRebisect, classScrape} {
			if seen[c] == 0 {
				t.Errorf("seed %d: no %s request in 400", seed, c)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		isOK bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.isOK || p != tc.p {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.p, tc.isOK)
		}
	}
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 90); got != 4.6 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: counted once
		{Start: 90, End: 120}, // clipped to the parent
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestLinkJoinsHandlersToTheirRequest(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRequest, Req: "a", Start: 0, End: 10},
		{ID: 2, Name: spanHandler, Req: "a", Start: 1, End: 9},
		{ID: 3, Name: spanRequest, Req: "t", Start: 20, End: 40},
		{ID: 4, Name: spanCoordRun, Parent: 3, Req: "t", Start: 21, End: 39},
		{ID: 5, Name: spanBackend, Class: "b0", Req: "t", Start: 22, End: 30},
		{ID: 6, Name: spanBackend, Class: "b1", Req: "t", Start: 22, End: 35},
	}
	link(spans)
	for id, want := range map[int]int{2: 1, 5: 4, 6: 4} {
		if got := spans[id-1].Parent; got != want {
			t.Errorf("span %d parent = %d, want %d", id, got, want)
		}
	}
	m := map[string]float64{}
	var ck checks
	spanMetrics(spans, 2, m, &ck)
	if ck.failed != 0 {
		t.Errorf("rebuild checks failed: %v", ck.problems)
	}
	if got := m["gridcoord.overhead_ms"]; got != ms(18-13) {
		t.Errorf("coordinator overhead = %g ms, want %g", got, ms(5))
	}
}

func TestParseStages(t *testing.T) {
	const text = `# HELP taskalloc_stage_seconds Per-stage processing latency.
# TYPE taskalloc_stage_seconds histogram
taskalloc_stage_seconds_bucket{stage="render",le="0.001"} 3
taskalloc_stage_seconds_bucket{stage="render",le="+Inf"} 4
taskalloc_stage_seconds_sum{stage="render"} 0.0125
taskalloc_stage_seconds_count{stage="render"} 4
taskalloc_stage_seconds_sum{stage="engine_run"} 2.5e-01
taskalloc_stage_seconds_count{stage="engine_run"} 10
taskalloc_stage_seconds_total_lookalike{stage="x"} 1
taskalloc_http_request_seconds_sum{route="sweeps"} 9
`
	got, err := parseStages([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["render"] != (stageSum{0.0125, 4}) || got["engine_run"] != (stageSum{0.25, 10}) {
		t.Errorf("parsed %v", got)
	}
	if _, err := parseStages([]byte(`taskalloc_stage_seconds_sum{stage="render"} nope`)); err == nil {
		t.Error("malformed value parsed")
	}
}

// TestStagesFromLiveExposition parses a real server's /v1/metrics after
// one sweep: the engine ran once per cell.
func TestStagesFromLiveExposition(t *testing.T) {
	s, body := serveTinySweep(t)
	exp, err := s.scrape(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseStages(exp)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := client.DecodeStream(bytes.NewReader(body), 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := st["engine_run"].count; n != float64(len(rows.Results)) {
		t.Errorf("engine_run count %g, want %d", n, len(rows.Results))
	}
	if st["render"].sum <= 0 {
		t.Errorf("render stage not observed: %v", st)
	}
}

// serveTinySweep serves a two-cell sweep and returns the server and the
// raw response the benchmark's client captured.
func serveTinySweep(t *testing.T) (*served, []byte) {
	t.Helper()
	s, err := startServer(simserver.Options{Workers: 1, MaxConcurrent: 1}, newTracer(), spanHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	sw := gridSweep(1, 0)
	sw.Jobs = sw.Jobs[:4] // static, step, burst, sinusoid (with a trajectory)
	sub, body, _, _, err := newDirect(s, newTracer()).submit(context.Background(), "sweep", sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRows(sw, sub.Header, sub.Results); err != nil {
		t.Fatal(err)
	}
	return s, body
}

// TestCorruptedByteIsCaught flips single bytes of a served response: the
// row checks alone miss a flipped digit inside a report, the byte
// comparison the benchmark makes against the reference response does not.
func TestCorruptedByteIsCaught(t *testing.T) {
	_, body := serveTinySweep(t)
	rowChecksMissed := 0
	for i := 0; i < len(body); i += 7 {
		bad := append([]byte(nil), body...)
		bad[i] ^= 0x01
		if sameBytes(bad, body) == nil {
			t.Fatalf("flipped byte %d not caught", i)
		}
		if sub, err := client.DecodeStream(bytes.NewReader(bad), 0, false, nil); err == nil {
			sw := gridSweep(1, 0)
			sw.Jobs = sw.Jobs[:4]
			if checkRows(sw, sub.Header, sub.Results) == nil {
				rowChecksMissed++
			}
		}
	}
	if rowChecksMissed == 0 {
		t.Error("expected some flips inside report values to pass the row checks")
	}
	if err := sameBytes(body[:len(body)-1], body); err == nil {
		t.Error("truncated response not caught")
	}
}

func TestMeanTimeRunsAtLeastOnce(t *testing.T) {
	n := 0
	meanTime(0, func() { n++ })
	if n != 1 {
		t.Errorf("ran %d times, want 1", n)
	}
}

func TestStorePeriodRepeatsClassMix(t *testing.T) {
	g := newStoreStream(3)
	var classes []string
	for i := 0; i < storePrefill+4*storePeriod; i++ {
		classes = append(classes, g.next().class)
	}
	mix := func(from int) map[string]int {
		m := map[string]int{}
		for _, c := range classes[from : from+storePeriod] {
			m[c]++
		}
		return m
	}
	want := mix(storePrefill)
	for from := storePrefill + 1; from+storePeriod <= len(classes); from++ {
		if got := mix(from); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("requests %d..%d carry %v, want %v", from, from+storePeriod-1, got, want)
		}
	}
}

func TestBlockRates(t *testing.T) {
	// Period 2, blocks of at least blockMin: requests end every 0.4 s,
	// so blocks close after requests 4 (1.6 s) and 8 (1.6 s later); the
	// ninth is the dropped tail.
	var p phase
	for i := 1; i <= 9; i++ {
		p.samples = append(p.samples, sample{end: time.Duration(i) * 400 * time.Millisecond, cells: i, antRounds: 1e6})
	}
	p.wall = 3600 * time.Millisecond
	jobs, mant := p.blockRates(2)
	want := []float64{(1 + 2 + 3 + 4) / 1.6, (5 + 6 + 7 + 8) / 1.6}
	if len(jobs) != 2 || math.Abs(jobs[0]-want[0]) > 1e-9 || math.Abs(jobs[1]-want[1]) > 1e-9 {
		t.Fatalf("jobs %v, want %v", jobs, want)
	}
	if math.Abs(mant[0]-4/1.6) > 1e-9 {
		t.Fatalf("mant %v, want %v first", mant, 4/1.6)
	}
	// Too short for a block: the whole phase is one.
	short := phase{samples: p.samples[:1], wall: 500 * time.Millisecond}
	if jobs, _ := short.blockRates(1); len(jobs) != 1 || jobs[0] != 2 {
		t.Fatalf("short phase: %v, want [2]", jobs)
	}
}
