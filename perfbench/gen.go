package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"taskalloc/internal/agent"
	"taskalloc/internal/scenario"
	"taskalloc/internal/wire"
)

// Every request below is a pure function of the workload seed and its
// position in the stream: the program under test receives only these
// generated documents. Cell counts and cell shapes (ants, rounds, tasks,
// schedule family, trajectory flag) are fixed per class; the seed only
// draws values (engine seeds, demand levels, learning rates, which
// earlier sweep a repeat targets).

// Every cell sets Shards explicitly: 0 means GOMAXPROCS and would make
// the response bytes depend on the host. All cells run unsharded; the
// traced run compares the engine at benchShards, the reference host's
// nproc, against one shard.
//
// colony-cold runs its cells unsharded, two at a time, rather than one
// at a time at Shards=2. On the 2-vCPU reference host, 14 interleaved
// runs of one 10^5-ant cell spread 0.29 (IQR/median) at Shards=2 against
// 0.086 at Shards=1: the per-round shard barrier waits for whichever
// vCPU the host has descheduled, which no run length averages out.
const benchShards = 2

// Salts separating the per-workload random streams.
const (
	saltColony = 0xC0101
	saltGrid   = 0x621D
	saltStore  = 0x5707E
)

// reqRand is the random source of request i of one workload's stream.
func reqRand(seed, salt uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed^salt, uint64(i)*0x9E3779B97F4A7C15+salt))
}

// nonZeroSeed draws an engine seed; 0 would alias the default seed 1.
func nonZeroSeed(r *rand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// --- colony-cold ---

// Colony cells: a few large colonies, one per algorithm.
const (
	colonyAnts   = 100_000
	colonyTasks  = 3
	colonyRounds = 1000
)

var colonyAlgorithms = []string{"ant", "precise-sigmoid"}

// colonyDemands is every colony cell's demand vector: only the engine
// seed varies, so every request does the same expected work.
var colonyDemands = []int{20_000, 18_000, 22_000}

// colonySweep is request i of the colony-cold stream: one cell per
// algorithm, each a fresh engine seed so every request misses the cache.
func colonySweep(seed uint64, i int) wire.Sweep {
	r := reqRand(seed, saltColony, i)
	s := wire.Sweep{Version: wire.V1}
	for _, alg := range colonyAlgorithms {
		cfg := wire.Config{
			Ants: colonyAnts, Demands: append([]int(nil), colonyDemands...), Algorithm: alg,
			Gamma: 1.0 / 32, Seed: nonZeroSeed(r), Shards: 1,
		}
		if alg == "precise-sigmoid" {
			cfg.Epsilon = 0.5
		}
		s.Jobs = append(s.Jobs, wire.Job{
			Meta: []string{"colony", strconv.Itoa(i), alg}, Rounds: colonyRounds, Config: cfg,
		})
	}
	return s
}

// --- grid-fanout ---

// gridShape is one cell position of every grid-fanout request.
type gridShape struct {
	family       string
	ants, rounds int
	tasks        int
	trajectory   bool
}

// gridFamilies are the scenario families the grid cells cycle through.
var gridFamilies = []string{"static", "step", "burst", "sinusoid", "compose", "modulate"}

// gridShapes fixes the 24 cell positions: families, sizes and horizons
// interleave so hash ranges and per-cell costs are uneven, and three
// cells (1 in 8) stream trajectories.
var gridShapes = func() []gridShape {
	ants := []int{300, 500, 700, 1000}
	rounds := []int{200, 300, 400}
	out := make([]gridShape, 24)
	for c := range out {
		out[c] = gridShape{
			family:     gridFamilies[c%len(gridFamilies)],
			ants:       ants[c%len(ants)],
			rounds:     rounds[c%len(rounds)],
			tasks:      2 + c%2,
			trajectory: c%7 == 3,
		}
	}
	return out
}()

var gridGammas = []float64{1.0 / 64, 1.0 / 48, 1.0 / 32, 1.0 / 24, agent.MaxGamma}

// gridSweep is request i of the grid-fanout stream.
func gridSweep(seed uint64, i int) wire.Sweep {
	r := reqRand(seed, saltGrid, i)
	s := wire.Sweep{Version: wire.V1, Jobs: make([]wire.Job, len(gridShapes))}
	for c, sh := range gridShapes {
		cfg := wire.Config{
			Ants: sh.ants, Gamma: gridGammas[r.IntN(len(gridGammas))],
			Seed: nonZeroSeed(r), Shards: 1,
		}
		base := demandVec(r, sh.tasks, sh.ants)
		if sh.family == "static" {
			cfg.Demands = base
		} else {
			sc := gridSchedule(r, sh, base)
			cfg.Schedule = &sc
		}
		s.Jobs[c] = wire.Job{
			Meta:   []string{"grid", strconv.Itoa(i), strconv.Itoa(c), sh.family},
			Rounds: sh.rounds, Trajectory: sh.trajectory, Config: cfg,
		}
	}
	return s
}

// demandVec draws a per-task demand vector whose peaks (up to 3/2 of
// it) still fit the colony.
func demandVec(r *rand.Rand, tasks, ants int) []int {
	d := make([]int, tasks)
	unit := ants / (2 * (tasks + 1))
	for j := range d {
		d[j] = unit + r.IntN(unit)
	}
	return d
}

// scaled returns v with every entry multiplied by num/den.
func scaled(v []int, num, den int) []int {
	out := make([]int, len(v))
	for j, x := range v {
		out[j] = x * num / den
	}
	return out
}

func gridSchedule(r *rand.Rand, sh gridShape, base []int) wire.Schedule {
	T := uint64(sh.rounds)
	sinusoid := func() wire.Schedule {
		amp := make([]float64, len(base))
		phase := make([]float64, len(base))
		for j := range base {
			amp[j] = 0.25
			phase[j] = r.Float64() * 6.283
		}
		return wire.Schedule{Kind: "sinusoid", Base: base, Amp: amp, Period: float64(T) / 3, Phase: phase}
	}
	burst := func() wire.Schedule {
		return wire.Schedule{Kind: "burst", Base: base, Peak: scaled(base, 3, 2),
			Start: T / 4, Every: T / 4, Len: T / 8}
	}
	switch sh.family {
	case "step":
		return wire.Schedule{Kind: "step", Base: base, When: []uint64{T / 2}, Vectors: [][]int{scaled(base, 5, 4)}}
	case "burst":
		return burst()
	case "sinusoid":
		return sinusoid()
	case "compose":
		return wire.Schedule{Kind: "compose", When: []uint64{0, T / 2},
			Parts: []wire.Schedule{{Kind: "static", Base: base}, sinusoid()}}
	case "modulate":
		inner := burst()
		scale := make([]float64, len(base))
		for j := range scale {
			scale[j] = 0.75 + 0.25*float64(j)
		}
		return wire.Schedule{Kind: "modulate", Inner: &inner, Scale: scale}
	}
	panic("perfbench: unknown grid family " + sh.family)
}

// --- store-mix ---

// Store-mix catalog cells: one shape for every cell of every class.
const (
	storeAnts       = 800
	storeTasks      = 2
	storeRounds     = 400
	storeSweepCells = 8
	storeOverlap    = 4 // cells of a miss grid re-used from earlier grids
	storeRespelled  = 2 // cells of a hit re-spelled behaviourally equal
	storeMaxEvals   = 9
	// storeTargetBand is below the regret noise between neighbouring γ
	// cells, so every bisect spends exactly storeMaxEvals evaluations:
	// the class keeps one composition (1 cached first midpoint, 8
	// simulated cells).
	storeTargetBand = 1e-3
	// storeScrapeEvery puts a GET /v1/metrics at every this-many requests.
	storeScrapeEvery = 25
	// storePattern is the class sequence every seed repeats (m miss, h
	// hit, b bisect, r rebisect: 40/40/10/10), so two seeds send the same
	// class mix; the seed draws what each request targets.
	storePattern = "mhmhbmhmhr"
	// storePeriod is the least common multiple of len(storePattern) and
	// storeScrapeEvery: any that many consecutive requests carry the
	// same class mix.
	storePeriod = 50
	// storeRecent bounds how far back hits and rebisects reach, so their
	// targets are always in the server's memory caches.
	storeRecent = 32
)

// Request classes: classSweep is the cold sweep of colony-cold and
// grid-fanout; the others are store-mix's.
const (
	classSweep    = "sweep"
	classMiss     = "miss"
	classHit      = "hit"
	classBisect   = "bisect"
	classRebisect = "rebisect"
	classScrape   = "scrape"
)

// catalogCell is catalog entry c: a unique template (its own engine
// seed and demand) at γ = the midpoint of its own bisect interval, so a
// cold bisect of the template first lands on the cached catalog cell.
func catalogCell(seed uint64, c int) (job wire.Job, lo, hi float64) {
	r := reqRand(seed, saltStore^0xCA7, c)
	lo = 0.005 + 0.015*r.Float64()
	hi = 0.035 + (agent.MaxGamma-0.035)*r.Float64()
	base := demandVec(r, storeTasks, storeAnts)
	job = wire.Job{
		Meta:   []string{"cat", strconv.Itoa(c)},
		Rounds: storeRounds,
		Config: wire.Config{
			Ants: storeAnts, Algorithm: "ant", Gamma: (lo + hi) / 2,
			Seed: nonZeroSeed(r), Shards: 1,
			Schedule: &wire.Schedule{Kind: "step", Base: base,
				When: []uint64{storeRounds / 2}, Vectors: [][]int{scaled(base, 5, 4)}},
		},
	}
	return job, lo, hi
}

// storeReq is one store-mix request.
type storeReq struct {
	class  string
	sweep  wire.Sweep         // miss, hit
	bisect wire.BisectRequest // bisect, rebisect
	target int                // hit: index of the miss it repeats; rebisect: of the bisect
}

// storeStream generates the store-mix request stream. It is stateful
// (a hit repeats an earlier miss), so requests are drawn in order.
type storeStream struct {
	seed     uint64
	n        int
	nextCell int   // next never-used catalog index
	misses   []int // stream indices of misses, in order
	bisects  []int // stream indices of cold bisects, in order
	unbisect []int // catalog cells served by a miss, not yet bisected
	reqs     map[int]*storeReq
}

func newStoreStream(seed uint64) *storeStream {
	return &storeStream{seed: seed, reqs: map[int]*storeReq{}}
}

// next draws the next request. Until a class has a target (the first
// miss, the first bisect), its slot falls back to a miss or a bisect.
func (g *storeStream) next() *storeReq {
	i := g.n
	g.n++
	r := reqRand(g.seed, saltStore, i)
	var q *storeReq
	switch c := storePattern[i%len(storePattern)]; {
	case i%storeScrapeEvery == storeScrapeEvery-1:
		q = &storeReq{class: classScrape}
	case c == 'm' || len(g.misses) == 0 || (c == 'b' && len(g.unbisect) == 0):
		q = g.miss(r)
	case c == 'h':
		q = g.hit(r)
	case c == 'b' || len(g.bisects) == 0:
		q = g.coldBisect(r)
	default:
		q = g.rebisect(r)
	}
	// Keep only what later requests can target; older entries are dead.
	switch q.class {
	case classMiss:
		g.misses = append(g.misses, i)
		g.reqs[i] = q
		forget(g.reqs, g.misses)
	case classBisect:
		g.bisects = append(g.bisects, i)
		g.reqs[i] = q
		forget(g.reqs, g.bisects)
	}
	return q
}

// forget drops the entry of the request that just left the window of
// targets a repeat can reach (order lists the stream indices in order).
func forget[V any](m map[int]V, order []int) {
	if len(order) > storeRecent {
		delete(m, order[len(order)-storeRecent-1])
	}
}

// recent picks one of the last storeRecent entries of idx.
func recent(r *rand.Rand, idx []int) int {
	k := min(len(idx), storeRecent)
	return idx[len(idx)-1-r.IntN(k)]
}

func (g *storeStream) miss(r *rand.Rand) *storeReq {
	q := &storeReq{class: classMiss, sweep: wire.Sweep{Version: wire.V1}}
	// Overlap cells come from the catalog prefix earlier grids used; the
	// first grid has none to share and uses fresh cells throughout.
	for k := 0; k < storeSweepCells; k++ {
		var c int
		if k < storeOverlap && g.nextCell >= storeSweepCells {
			c = r.IntN(g.nextCell)
		} else {
			c = g.nextCell
			g.nextCell++
			g.unbisect = append(g.unbisect, c)
		}
		job, _, _ := catalogCell(g.seed, c)
		q.sweep.Jobs = append(q.sweep.Jobs, job)
	}
	return q
}

func (g *storeStream) hit(r *rand.Rand) *storeReq {
	t := recent(r, g.misses)
	orig := g.reqs[t].sweep
	s := wire.Sweep{Version: orig.Version, Jobs: append([]wire.Job(nil), orig.Jobs...)}
	for k := 0; k < storeRespelled; k++ {
		s.Jobs[k*storeSweepCells/storeRespelled] = respell(s.Jobs[k*storeSweepCells/storeRespelled])
	}
	return &storeReq{class: classHit, sweep: s, target: t}
}

// respell returns a behaviourally equal spelling of a catalog cell: the
// step schedule as its frozen snapshot, and the algorithm left to its
// default.
func respell(j wire.Job) wire.Job {
	cfg := j.Config
	dec, err := cfg.Schedule.ToSchedule()
	if err != nil {
		panic(fmt.Sprintf("perfbench: catalog schedule: %v", err))
	}
	fz, err := scenario.Freeze(dec, uint64(j.Rounds))
	if err != nil {
		panic(fmt.Sprintf("perfbench: freeze catalog schedule: %v", err))
	}
	enc, err := wire.FromSchedule(fz)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode frozen schedule: %v", err))
	}
	cfg.Schedule = &enc
	cfg.Algorithm = ""
	j.Config = cfg
	return j
}

func (g *storeStream) coldBisect(r *rand.Rand) *storeReq {
	// A served catalog cell nobody bisected yet, from the recent end so
	// it is still in the server's job cache.
	k := len(g.unbisect) - 1 - r.IntN(min(len(g.unbisect), storeRecent))
	c := g.unbisect[k]
	g.unbisect = append(g.unbisect[:k], g.unbisect[k+1:]...)
	job, lo, hi := catalogCell(g.seed, c)
	return &storeReq{class: classBisect, bisect: wire.BisectRequest{
		Version: wire.V1, Job: job, GammaLo: lo, GammaHi: hi,
		TargetBand: storeTargetBand, MaxEvals: storeMaxEvals,
	}}
}

func (g *storeStream) rebisect(r *rand.Rand) *storeReq {
	t := recent(r, g.bisects)
	return &storeReq{class: classRebisect, bisect: g.reqs[t].bisect, target: t}
}

// streamDocs renders the first n requests of a workload's stream as the
// documents the program receives (a scrape as its request line).
func streamDocs(name string, seed uint64, n int) ([][]byte, error) {
	var out [][]byte
	add := func(v any) error {
		var b []byte
		var err error
		if sw, ok := v.(wire.Sweep); ok {
			b, err = wire.MarshalSweep(sw)
		} else {
			b, err = json.Marshal(v)
		}
		out = append(out, b)
		return err
	}
	var err error
	switch name {
	case "colony-cold":
		for i := 0; i < n && err == nil; i++ {
			err = add(colonySweep(seed, i))
		}
	case "grid-fanout":
		for i := 0; i < n && err == nil; i++ {
			err = add(gridSweep(seed, i))
		}
	case "store-mix":
		g := newStoreStream(seed)
		for i := 0; i < n && err == nil; i++ {
			switch q := g.next(); q.class {
			case classMiss, classHit:
				err = add(q.sweep)
			case classBisect, classRebisect:
				err = add(q.bisect)
			default:
				err = add("GET /v1/metrics")
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want colony-cold, grid-fanout or store-mix)", name)
	}
	return out, err
}

// streamDigest is the SHA-256 of the first n requests of a stream: equal
// seeds must give equal digests.
func streamDigest(name string, seed uint64, n int) (string, error) {
	docs, err := streamDocs(name, seed, n)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d:", len(d))
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
