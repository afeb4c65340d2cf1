// Command perfbench is the repository's benchmark. One run sets up and
// measures three sections in one process — the executor (mmm), the
// planning service over loopback HTTP (plan) and the batch search census
// (census) — and prints every end-to-end metric, or with -trace 1 every
// per-layer metric, as the last line of standard output:
//
//	perfbench -workload high-het -seed 1 -seconds 20 -trace 0
//
// The workload names the input regime: the processor ratios every
// section draws. The whole operation sequence is a pure function of the
// flags, every output is checked, and count metrics must repeat exactly
// across runs of the same build with the same flags. See README.md for
// the design and the layer-to-metric map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up from scratch; setup_s is
// their median, so one slow set-up does not move it.
const setupReps = 5

// layerLimit bounds the direct per-layer calls made on a section's
// scenarios in the traced pass.
const layerLimit = 30

// pass collects one pass over the operation sequence: latency samples
// per class, per-layer samples (traced pass only), exact counts, and
// failed checks.
type pass struct {
	rec       *recorder
	samples   map[string][]float64
	layers    map[string][]float64
	counts    map[string]int64
	attempted int
	failed    int
	failures  []string
	fatals    []string
}

func newPass(rec *recorder) *pass {
	return &pass{rec: rec, samples: map[string][]float64{}, layers: map[string][]float64{}, counts: map[string]int64{}}
}

func (p *pass) sample(class string, v float64) { p.samples[class] = append(p.samples[class], v) }
func (p *pass) layer(name string, v float64)   { p.layers[name] = append(p.layers[name], v) }
func (p *pass) count(name string, v int64)     { p.counts[name] += v }

// fail marks the current op failed.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// fatal records a failure of the run as a whole (not of one op).
func (p *pass) fatal(format string, args ...any) {
	p.fatals = append(p.fatals, fmt.Sprintf(format, args...))
}

// env is one complete set-up of all three sections.
type env struct {
	mmm    *mmmEnv
	plan   *planEnv
	census *censusEnv
}

func setup(seed int64, out string, w workload) (*env, error) {
	e := &env{}
	var err error
	if e.mmm, err = setupMMM(seed, out, w.MMMRatio); err != nil {
		return nil, err
	}
	if e.plan, err = setupPlan(); err != nil {
		e.close()
		return nil, err
	}
	if e.census, err = setupCensus(w); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	if e == nil {
		return
	}
	if e.mmm != nil {
		e.mmm.close()
	}
	if e.plan != nil {
		e.plan.close()
	}
}

// sectionTimes is the time each section took in a pass, checks included.
type sectionTimes map[string]time.Duration

// runPass runs the ops of every section once, in order within each
// section. Garbage from set-up or the previous slice is collected before
// each slice starts.
func (e *env) runPass(p *pass, o ops) sectionTimes {
	t := sectionTimes{}
	for c := 0; c < chunks; c++ {
		for _, s := range []struct {
			name string
			n    int
			run  func(lo, hi int)
		}{
			{"mmm", len(o.MMM), func(lo, hi int) { e.mmm.run(p, o.MMM[lo:hi], lo) }},
			{"plan", len(o.Plan), func(lo, hi int) { e.plan.run(p, o.Plan[lo:hi], lo) }},
			{"census", len(o.Census), func(lo, hi int) { e.census.run(p, o.Census[lo:hi], lo) }},
		} {
			runtime.GC()
			start := time.Now()
			s.run(slice(c, s.n))
			t[s.name] += time.Since(start)
		}
	}
	return t
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	workload := fs.String("workload", "", "input regime: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", refSeconds, "run length the op counts are sized for")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from an extra traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*workload)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %v, -seconds ≥ 1, -trace 0|1\n", names)
		return 2
	}
	if err := bench(w, *seed, *seconds, *traceFlag == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// outDir is where the benchmark writes spans, counts and checkpoints:
// under the build directory, inside the checkout.
func outDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return filepath.Join(d, "perfbench")
}

func bench(w workload, seed int64, seconds int, traced bool, stdout io.Writer) error {
	out := outDir()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	build, err := buildID()
	if err != nil {
		return err
	}
	o := genOps(w, seed, seconds)
	digest := o.digest()
	fmt.Fprintf(stdout, "build %s, ops digest %s: mmm %d, plan %d, census %d ops\n", build, digest, len(o.MMM), len(o.Plan), len(o.Census))

	var e *env
	var setups []float64
	var atlasBuilds []float64
	for r := 0; r < setupReps; r++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(seed, out, w); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		atlasBuilds = append(atlasBuilds, e.plan.atlasBuild.Seconds())
	}
	defer func() { e.close() }()

	plain := newPass(nil)
	plainTimes := e.runPass(plain, o)
	if err := checkFatals(plain); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "untraced sections: mmm %.1fs, plan %.1fs, census %.1fs; setups %v s\n",
		plainTimes["mmm"].Seconds(), plainTimes["plan"].Seconds(), plainTimes["census"].Seconds(), setups)
	res := result{Attempted: plain.attempted, Failed: plain.failed}
	counts := plain.counts

	var values map[string]float64
	if !traced {
		values, err = endToEnd(plain, setups)
	} else {
		// The traced pass needs the same cold caches the untraced pass
		// saw, so it runs on a fresh set-up.
		e.close()
		if e, err = setup(seed, out, w); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		atlasBuilds = append(atlasBuilds, e.plan.atlasBuild.Seconds())
		rec := newRecorder()
		tp := newPass(rec)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		e.runPass(tp, o)
		runtime.ReadMemStats(&ms1)
		e.plan.layerCalls(tp, o.Plan, layerLimit)
		if err := checkFatals(tp); err != nil {
			return err
		}
		for k, v := range plain.counts {
			if tp.counts[k] != v {
				return fmt.Errorf("count %s is %d untraced but %d traced", k, v, tp.counts[k])
			}
		}
		counts = tp.counts
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		plain.failures = append(plain.failures, tp.failures...)
		spans := rec.snapshot()
		if err := writeSpans(filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", w.Name, seed)), spans); err != nil {
			return err
		}
		gc := gcDelta{cycles: ms1.NumGC - ms0.NumGC, pause: time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)}
		overhead := (timedMS(tp)/timedMS(plain) - 1) * 100
		values, err = perLayer(tp, o, spans, atlasBuilds, gc, overhead)
	}
	if err != nil {
		return err
	}
	if err := checkCounts(filepath.Join(out, "counts"), countsKey(build, w.Name, seed, seconds), digest, counts); err != nil {
		return err
	}
	for _, f := range plain.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs
	}
	res.Metrics = map[string]metric{}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", s.Name, v, s.Unit)
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

// timedMS is the summed latency of every timed op of a pass, the base of
// the tracing overhead. It leaves out the checks and, in the traced pass,
// the census replays, which are work only that pass does.
func timedMS(p *pass) float64 {
	var t float64
	for _, c := range []string{"barrier", "overlap", "guarded", "pair.kij", "atlas", "search", "repeat"} {
		t += sum(p.samples[c])
	}
	return t + 1e3*(sum(p.samples["census.s"])+sum(p.samples["k4.s"]))
}

func checkFatals(p *pass) error {
	if len(p.fatals) == 0 {
		return nil
	}
	return errors.New(strings.Join(p.fatals, "; "))
}

// buildID is a digest of the running executable. Counts are compared only
// between runs of the same build: a change to the program or to the
// benchmark may change them legitimately.
func buildID() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// countsKey names the record of a run's counts: one per build and flags.
func countsKey(build, workload string, seed int64, seconds int) string {
	return fmt.Sprintf("%s-%s-%d-%d", build, workload, seed, seconds)
}

// checkCounts compares the run's exact counts with those an earlier run
// of the same build with the same flags recorded, and records them when
// none exists. A difference is a failure of determinism, never noise.
func checkCounts(dir, key, digest string, counts map[string]int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type record struct {
		Digest string           `json:"digest"`
		Counts map[string]int64 `json:"counts"`
	}
	path := filepath.Join(dir, key+".json")
	if b, err := os.ReadFile(path); err == nil {
		var prev record
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("counts record %s: %w", path, err)
		}
		if prev.Digest != digest {
			return fmt.Errorf("op digest %s differs from %s recorded by an earlier run of this build with the same flags", digest, prev.Digest)
		}
		if diff := diffCounts(prev.Counts, counts); diff != "" {
			return fmt.Errorf("count metrics differ from an earlier run of this build with the same flags: %s", diff)
		}
		return nil
	}
	b, err := json.Marshal(record{Digest: digest, Counts: counts})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// diffCounts lists the keys whose counts differ, or "" when equal.
func diffCounts(a, b map[string]int64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, a[k], b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}
