package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the percentiles a class may report beyond its
// median, lowest first.
var tailPercentiles = []float64{90, 99, 99.9}

// tailPercentile is the highest percentile of tailPercentiles that has
// at least ten of n samples beyond it (p90 needs 100 samples); ok is
// false when none has.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailPercentiles {
		if float64(n)*(100-q)/100 >= 10-1e-9 {
			p, ok = q, true
		}
	}
	return p, ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample is a snapshot of the process-wide runtime counters the
// benchmark reports as deltas.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// peakRSSKiB is the process's resident-set high-water mark (VmHWM).
func peakRSSKiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}

// stageSum is one taskalloc_stage_seconds child: total seconds and
// observation count.
type stageSum struct {
	sum   float64
	count float64
}

// parseStages extracts the taskalloc_stage_seconds _sum/_count pairs
// from a Prometheus text exposition, keyed by the stage label.
func parseStages(exposition []byte) (map[string]stageSum, error) {
	const family = "taskalloc_stage_seconds"
	out := map[string]stageSum{}
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok {
			continue
		}
		var field string
		switch {
		case strings.HasPrefix(rest, "_sum{"):
			field, rest = "sum", rest[len("_sum"):]
		case strings.HasPrefix(rest, "_count{"):
			field, rest = "count", rest[len("_count"):]
		default:
			continue
		}
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return nil, fmt.Errorf("perfbench: malformed sample %q", line)
		}
		stage := ""
		for _, kv := range strings.Split(rest[1:end], ",") {
			if v, ok := strings.CutPrefix(kv, `stage="`); ok {
				stage = strings.TrimSuffix(v, `"`)
			}
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(rest[end+1:]), 64)
		if stage == "" || err != nil {
			return nil, fmt.Errorf("perfbench: malformed sample %q", line)
		}
		s := out[stage]
		if field == "sum" {
			s.sum = val
		} else {
			s.count = val
		}
		out[stage] = s
	}
	return out, sc.Err()
}

// addStages sums b into a (several backends' expositions).
func addStages(a, b map[string]stageSum) {
	for k, v := range b {
		s := a[k]
		s.sum += v.sum
		s.count += v.count
		a[k] = s
	}
}

// subStages returns a − b per stage: the activity between two scrapes.
func subStages(a, b map[string]stageSum) map[string]stageSum {
	out := map[string]stageSum{}
	for k, v := range a {
		out[k] = stageSum{sum: v.sum - b[k].sum, count: v.count - b[k].count}
	}
	return out
}

// meanSeconds is a stage's mean observation in seconds (NaN if none).
func (s stageSum) meanSeconds() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / s.count
}

// probe times a fixed register-only loop: a host-speed diagnostic
// printed beside each run, never used to adjust a metric.
func probe() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	if x == 0 { // never true; keeps the loop live
		fmt.Fprintln(os.Stderr, x)
	}
	return d
}
