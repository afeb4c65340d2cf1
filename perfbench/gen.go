package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/model"
	"repro/internal/partition"
)

// Workload constants. Every operation of a run is generated from these and
// the seed, before any timing starts.
const (
	mmmN      = 256 // N=256: A, B and C (1.5 MiB) fit in a 2 MiB L2
	mmmInputs = 4   // distinct seeded (A, B) pairs the ops draw from

	planN        = 100 // atlas and search scenarios share N and algorithm family
	atlasScale   = 10  // lattice step 0.1 in Pr and Rr
	atlasPrMax   = 4.0
	atlasRrMax   = 3.0
	topologyEach = 4 // every 4th fresh scenario carries a per-link topology

	censusN    = 100
	censusRuns = 2 // DFA runs per Census call, one per worker on 2 cores
	k4N        = 40
	refSeconds = 20 // the --seconds the base op counts are sized for
)

// mmmShapes are the two shapes Fig 14 compares.
var mmmShapes = []partition.Shape{partition.SquareCorner, partition.BlockRectangle}

// workload is one input regime. Every workload runs all three sections
// with the same op counts; they differ in the processor ratios the
// sections draw, along the paper's axis of heterogeneity, where the
// Square-Corner and Block-Rectangle shapes trade places.
type workload struct {
	Name     string
	MMMRatio partition.Ratio
	PlanPr   [2]float64        // generated plan scenarios keep Pr in [lo, hi]
	Census   []partition.Ratio // the paper's ratios this regime's Census calls cycle through
	K4Ratio  []float64
}

// workloads are in the order BENCHMARK.json lists them. The paper's 11
// ratios split at a fastest-processor share of 0.6.
var workloads = []workload{
	{
		Name:     "high-het",
		MMMRatio: partition.MustRatio(5, 2, 1),
		PlanPr:   [2]float64{2.8, atlasPrMax},
		Census: []partition.Ratio{
			partition.MustRatio(3, 1, 1), partition.MustRatio(4, 1, 1), partition.MustRatio(5, 1, 1),
			partition.MustRatio(10, 1, 1), partition.MustRatio(5, 2, 1),
		},
		K4Ratio: []float64{8, 4, 2, 1},
	},
	{
		Name:     "low-het",
		MMMRatio: partition.MustRatio(3, 2, 1),
		PlanPr:   [2]float64{1.5, 2.7},
		Census: []partition.Ratio{
			partition.MustRatio(2, 1, 1), partition.MustRatio(2, 2, 1), partition.MustRatio(3, 2, 1),
			partition.MustRatio(4, 2, 1), partition.MustRatio(5, 3, 1), partition.MustRatio(5, 4, 1),
		},
		K4Ratio: []float64{4, 3, 2, 1},
	},
}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// chunks is how many slices each section's ops are cut into. The slices
// run round-robin across the sections, so every section's samples spread
// over the whole pass and a slow spell of the host touches all of them
// alike instead of one section's whole window.
const chunks = 16

// slice returns the bounds of slice c of a section's n ops.
func slice(c, n int) (lo, hi int) { return c * n / chunks, (c + 1) * n / chunks }

// Base op counts per class. Each class whose p90 is reported has at least
// 100 ops, so ten samples lie beyond the p90.
const (
	baseBarrier = 100
	baseOverlap = 102
	baseGuarded = 20
	baseAtlas   = 2000
	baseSearch  = 600
	baseRepeat  = 1000
	baseCensus  = 300
	baseK4      = 480
)

// mmmOp is one multiplication, paired with a serial kij on the same inputs.
type mmmOp struct {
	Class    string // "barrier", "overlap" or "guarded"
	Alg      model.Algorithm
	Shape    partition.Shape
	Input    int
	KijFirst bool // alternate which side of the pair runs first
}

// planOp is one /v1/plan request.
type planOp struct {
	Class    string // "atlas", "search" or "repeat"
	Ratio    string
	Alg      string
	Topology string
}

// key identifies the scenario the server caches and plans.
func (o planOp) key() string { return o.Ratio + "|" + o.Alg + "|" + o.Topology }

// censusOp is one Census call on one of the paper's ratios, or one K=4
// run.
type censusOp struct {
	Class string // "census" or "k4"
	Seed  int64
	Ratio partition.Ratio // census only
	Check bool            // census: recompute the call with Workers: 1
}

// ops is the whole seeded operation sequence of a run, with the workload
// whose ratios it uses.
type ops struct {
	Workload workload
	MMM      []mmmOp
	Plan     []planOp
	Census   []censusOp
}

// sizeFor scales a base count by run length relative to refSeconds (never
// below the base), rounded up to a multiple of combos so every
// combination of a class gets the same share.
func sizeFor(base int, seconds int, combos int) int {
	n := int(math.Ceil(float64(base) * math.Max(1, float64(seconds)/refSeconds)))
	return (n + combos - 1) / combos * combos
}

// sectionRNG derives an independent stream per section so that resizing
// one section never changes another's inputs.
func sectionRNG(seed int64, section string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, section)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// genOps builds the run's operation sequence. It is a pure function of
// its arguments.
func genOps(w workload, seed int64, seconds int) ops {
	return ops{
		Workload: w,
		MMM:      genMMM(sectionRNG(seed, "mmm"), seconds),
		Plan:     genPlan(sectionRNG(seed, "plan"), seconds, w.PlanPr),
		Census:   genCensus(sectionRNG(seed, "census"), seconds, w.Census),
	}
}

func genMMM(rng *rand.Rand, seconds int) []mmmOp {
	var out []mmmOp
	add := func(class string, algs []model.Algorithm, base int) {
		combos := len(algs) * len(mmmShapes)
		n := sizeFor(base, seconds, combos)
		for i := 0; i < n; i++ {
			c := i % combos
			out = append(out, mmmOp{
				Class: class,
				Alg:   algs[c/len(mmmShapes)],
				Shape: mmmShapes[c%len(mmmShapes)],
				Input: rng.Intn(mmmInputs),
			})
		}
	}
	add("barrier", []model.Algorithm{model.SCB, model.PCB}, baseBarrier)
	add("overlap", []model.Algorithm{model.SCO, model.PCO, model.PIO}, baseOverlap)
	add("guarded", []model.Algorithm{model.SCB, model.PCB}, baseGuarded)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].KijFirst = i%2 == 0
	}
	return out
}

// latticeRatio renders an on-lattice ratio exactly as the atlas grid
// parses it back ("3.2:1.7:1").
func latticeRatio(pi, ri int) string {
	return fmt.Sprintf("%g:%g:1", float64(atlasScale+pi)/atlasScale, float64(atlasScale+ri)/atlasScale)
}

// freshRatios draws n distinct off-lattice ratios, in hundredths, with
// Pr in prs, by Latin-hypercube sampling: Pr, and Rr's position within [1, min(Pr,
// RrMax)], are each cut into n equal strata and every stratum is used
// once. Every seed then covers the ratio space evenly, so the search
// class's percentiles depend little on which seed drew it. A hundredths
// digit of zero is bumped so no ratio snaps onto the 0.1 lattice.
func freshRatios(rng *rand.Rand, n int, prs [2]float64) [][2]int {
	offLattice := func(x int) int {
		if x%10 == 0 {
			x++
		}
		return x
	}
	perm := rng.Perm(n)
	seen := map[[2]int]bool{}
	out := make([][2]int, 0, n)
	for k := 0; k < n; k++ {
		pr := offLattice(int(prs[0]*100 + (float64(k)+rng.Float64())*(prs[1]-prs[0])*100/float64(n)))
		hi := min(pr, int(atlasRrMax*100))
		rr := offLattice(100 + int((float64(perm[k])+rng.Float64())*float64(hi-100)/float64(n)))
		for seen[[2]int{pr, rr}] {
			rr = offLattice(100 + rng.Intn(hi-100))
		}
		seen[[2]int{pr, rr}] = true
		out = append(out, [2]int{pr, rr})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genPlan draws the request stream with Pr in prs, both bounds on the
// atlas lattice.
func genPlan(rng *rand.Rand, seconds int, prs [2]float64) []planOp {
	nAtlas := sizeFor(baseAtlas, seconds, 1)
	nSearch := sizeFor(baseSearch, seconds, 1)
	nRepeat := sizeFor(baseRepeat, seconds, 1)
	classes := make([]string, 0, nAtlas+nSearch+nRepeat)
	for _, c := range []struct {
		name string
		n    int
	}{{"atlas", nAtlas}, {"search", nSearch}, {"repeat", nRepeat}} {
		for i := 0; i < c.n; i++ {
			classes = append(classes, c.name)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	// A repeat needs an earlier fresh scenario: move the first search op
	// to the front.
	for i, c := range classes {
		if c == "search" {
			classes[0], classes[i] = classes[i], classes[0]
			break
		}
	}

	algs := []string{"SCB", "PCB", "SCO"}
	topologies := []string{"2+1:10", "3-island:10"}
	piLo := int(math.Round(prs[0]*atlasScale)) - atlasScale
	prSteps := int(math.Round((prs[1]-prs[0])*atlasScale)) + 1
	ratios := freshRatios(rng, nSearch, prs)
	var fresh []planOp
	out := make([]planOp, 0, len(classes))
	for _, c := range classes {
		switch c {
		case "atlas":
			pi := piLo + rng.Intn(prSteps)
			ri := rng.Intn(min(pi, int((atlasRrMax-1)*atlasScale)) + 1)
			out = append(out, planOp{Class: c, Ratio: latticeRatio(pi, ri), Alg: "SCB"})
		case "search":
			pr, rr := ratios[len(fresh)][0], ratios[len(fresh)][1]
			op := planOp{
				Class: c,
				Ratio: fmt.Sprintf("%d.%02d:%d.%02d:1", pr/100, pr%100, rr/100, rr%100),
				Alg:   algs[rng.Intn(len(algs))],
			}
			if len(fresh)%topologyEach == topologyEach-1 {
				op.Topology = topologies[len(fresh)/topologyEach%len(topologies)]
			}
			fresh = append(fresh, op)
			out = append(out, op)
		case "repeat":
			op := fresh[rng.Intn(len(fresh))]
			op.Class = c
			out = append(out, op)
		}
	}
	// Within each slice, send the searches first, then the atlas
	// requests, then the repeats. A request right after a search is
	// slower (atlas p50 0.22 ms vs 0.15 ms after another atlas request),
	// so shuffled classes would make the atlas and repeat percentiles a
	// seed-dependent mix of two populations. Searches first also keeps
	// every repeat after the first request of its scenario.
	order := map[string]int{"search": 0, "atlas": 1, "repeat": 2}
	for c := 0; c < chunks; c++ {
		lo, hi := slice(c, len(out))
		sort.SliceStable(out[lo:hi], func(i, j int) bool { return order[out[lo+i].Class] < order[out[lo+j].Class] })
	}
	return out
}

func genCensus(rng *rand.Rand, seconds int, ratios []partition.Ratio) []censusOp {
	var out []censusOp
	// Calls cycle through the ratios so each gets the same share; the
	// first cycle is recomputed serially as a check.
	nr := len(ratios)
	for i, n := 0, sizeFor(baseCensus, seconds, nr); i < n; i++ {
		out = append(out, censusOp{Class: "census", Seed: rng.Int63n(1 << 40), Ratio: ratios[i%nr], Check: i < nr})
	}
	for i, n := 0, sizeFor(baseK4, seconds, 1); i < n; i++ {
		out = append(out, censusOp{Class: "k4", Seed: rng.Int63n(1 << 40)})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// digest is a short fingerprint of the whole operation sequence: equal
// digests mean two runs were asked to do identical work.
func (o ops) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
