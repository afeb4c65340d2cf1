package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/partition"
)

func TestOpsArePureFunctionOfFlags(t *testing.T) {
	for _, w := range workloads {
		a, b := genOps(w, 7, 20), genOps(w, 7, 20)
		if a.digest() != b.digest() {
			t.Fatalf("%s: same flags gave digests %s and %s", w.Name, a.digest(), b.digest())
		}
		if c := genOps(w, 8, 20); c.digest() == a.digest() {
			t.Fatalf("%s: seeds 7 and 8 gave the same ops", w.Name)
		}
	}
	// Workloads share op counts and the executor's op sequence; they
	// differ in the ratios drawn.
	h, l := genOps(workloads[0], 7, 20), genOps(workloads[1], 7, 20)
	if h.digest() == l.digest() || !reflect.DeepEqual(h.MMM, l.MMM) ||
		len(h.Plan) != len(l.Plan) || len(h.Census) != len(l.Census) {
		t.Fatalf("workloads should differ in ratios only")
	}
	// Sections draw from separate streams: resizing one leaves the
	// others' inputs alone.
	if !reflect.DeepEqual(h.Plan, genPlan(sectionRNG(7, "plan"), 20, workloads[0].PlanPr)) ||
		!reflect.DeepEqual(h.Census, genCensus(sectionRNG(7, "census"), 20, workloads[0].Census)) {
		t.Fatalf("a section's ops depend on more than its own seed stream and size")
	}
}

func TestClassSizesAllowP90(t *testing.T) {
	for _, w := range workloads {
		o := genOps(w, 3, 20)
		n := map[string]int{}
		for _, op := range o.MMM {
			n[op.Class]++
		}
		for _, op := range o.Plan {
			n[op.Class]++
		}
		for _, c := range []string{"barrier", "overlap", "atlas", "search", "repeat"} {
			if n[c]-int(math.Ceil(0.9*float64(n[c]))) < minBeyond {
				t.Errorf("%s: class %s has %d ops, too few for a p90", w.Name, c, n[c])
			}
		}
		if n["guarded"]-int(math.Ceil(0.5*float64(n["guarded"]))) < minBeyond {
			t.Errorf("%s: guarded has %d ops, too few for a p50", w.Name, n["guarded"])
		}
	}
}

func TestWorkloadsSplitPaperRatios(t *testing.T) {
	seen := map[partition.Ratio]string{}
	for _, w := range workloads {
		for _, r := range w.Census {
			if prev, ok := seen[r]; ok {
				t.Errorf("ratio %v in both %s and %s", r, prev, w.Name)
			}
			seen[r] = w.Name
			share := r.Pr / (r.Pr + r.Rr + r.Sr)
			if high := w.Name == "high-het"; high != (share >= 0.6) {
				t.Errorf("%s: ratio %v has fastest share %.2f", w.Name, r, share)
			}
		}
		for _, s := range mmmShapes {
			if _, err := partition.Build(s, mmmN, w.MMMRatio); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
	for _, r := range partition.PaperRatios {
		if seen[r] == "" {
			t.Errorf("paper ratio %v is in no workload", r)
		}
	}
}

func TestPlanScenarios(t *testing.T) {
	grid, err := atlas.NewGrid(atlasScale, atlasPrMax, atlasRrMax)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o := genOps(w, 11, 20)
		fresh := map[string]bool{}
		topo := 0
		for i, op := range o.Plan {
			r, err := partition.ParseRatio(op.Ratio)
			if err != nil {
				t.Fatalf("%s op %d: %v", w.Name, i, err)
			}
			if r.Pr < w.PlanPr[0] || r.Pr > w.PlanPr[1]+0.011 {
				t.Fatalf("%s op %d: Pr %g outside %v", w.Name, i, r.Pr, w.PlanPr)
			}
			_, on := grid.Snap(r)
			switch op.Class {
			case "atlas":
				if !on || op.Topology != "" {
					t.Fatalf("%s op %d: atlas request %s is off the lattice", w.Name, i, op.key())
				}
			case "search":
				if on || fresh[op.key()] {
					t.Fatalf("%s op %d: fresh request %s is on the lattice or repeated", w.Name, i, op.key())
				}
				fresh[op.key()] = true
				if op.Topology != "" {
					topo++
				}
			case "repeat":
				if !fresh[op.key()] {
					t.Fatalf("%s op %d: repeat of %s precedes its first request", w.Name, i, op.key())
				}
			}
		}
		if topo != len(fresh)/topologyEach {
			t.Fatalf("%s: %d of %d fresh scenarios carry a topology, want every %dth", w.Name, topo, len(fresh), topologyEach)
		}
		if fresh[warmFresh.key()] {
			t.Fatalf("%s: the warm-up scenario is part of the stream, so its cache entry would turn a search into a repeat", w.Name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, specs []metricSpec, names, units []string) {
		if len(specs) != len(names) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(specs), len(names))
		}
		for i, s := range specs {
			if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, s.Name, s.Unit)
			}
			if seen[s.Name] {
				t.Errorf("%s: %s used twice", kind, s.Name)
			}
			seen[s.Name] = true
			if names[i] != s.Name || units[i] != s.Unit {
				t.Errorf("%s %d: program reports %s [%s], BENCHMARK.json lists %s [%s]", kind, i, s.Name, s.Unit, names[i], units[i])
			}
		}
	}
	var n, u []string
	for _, m := range bj.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEndSpecs, n, u)
	n, u = nil, nil
	for _, m := range bj.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayerSpecs, n, u)
	var wl, known []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	for _, w := range workloads {
		known = append(known, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(known, ",") {
		t.Errorf("workloads %v, program knows %v", wl, known)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 over 99 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 over 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestPairedRatio(t *testing.T) {
	// Σexec/Σkij, not the mean of per-op ratios (which would be 5/3).
	if r, err := pairedRatio([]float64{3, 1}, []float64{1, 3}); err != nil || r != 1 {
		t.Fatalf("got %v, %v; want 1", r, err)
	}
	// Host drift that slows both sides of a pair alike cancels.
	exec, kij := []float64{40, 50, 60}, []float64{10, 12.5, 15}
	base, _ := pairedRatio(exec, kij)
	for i, f := range []float64{1, 1.4, 0.8} {
		exec[i] *= f
		kij[i] *= f
	}
	if drift, _ := pairedRatio(exec, kij); math.Abs(drift-base) > 1e-12 || base != 4 {
		t.Fatalf("ratio %v under drift, %v without; want 4", drift, base)
	}
	if _, err := pairedRatio([]float64{1}, nil); err == nil {
		t.Fatal("unpaired samples must be refused")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 4, Parent: 1, Name: "grandchild", Start: ms(10), End: ms(20)},
	}
	if got := selfTimesMS(spans, "root"); len(got) != 1 || got[0] != 40 {
		t.Fatalf("root self time %v, want [40]", got)
	}
	if got := selfTimesMS(spans, "a"); got[0] != 20 {
		t.Fatalf("a self time %v, want [20]", got)
	}
}

func TestDiffCounts(t *testing.T) {
	if d := diffCounts(map[string]int64{"a": 1}, map[string]int64{"a": 1}); d != "" {
		t.Fatalf("equal counts reported as %q", d)
	}
	if d := diffCounts(map[string]int64{"a": 1}, map[string]int64{"a": 2, "b": 0}); d != "a 1 vs 2" {
		t.Fatalf("got %q", d)
	}
}

func TestCountsComparedWithinOneBuild(t *testing.T) {
	dir := t.TempDir()
	first := map[string]int64{"exec.blocks": 8160}
	changed := map[string]int64{"exec.blocks": 4080}
	if err := checkCounts(dir, countsKey("build1", "high-het", 1, 20), "d", first); err != nil {
		t.Fatal(err)
	}
	if err := checkCounts(dir, countsKey("build1", "high-het", 1, 20), "d", first); err != nil {
		t.Fatalf("same build, same counts: %v", err)
	}
	if err := checkCounts(dir, countsKey("build1", "high-het", 1, 20), "d", changed); err == nil {
		t.Fatal("same build with different counts must fail")
	}
	// A changed program or benchmark is a new build whose counts may
	// differ legitimately.
	if err := checkCounts(dir, countsKey("build2", "high-het", 1, 20), "d", changed); err != nil {
		t.Fatalf("a new build must start a fresh record: %v", err)
	}
}
