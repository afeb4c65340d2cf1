package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEndSpecs are the metrics a user of the system sees, reported by
// every untraced run.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"mmm_vs_kij", "ratio"},
	{"barrier_p50_ms", "ms"},
	{"barrier_p90_ms", "ms"},
	{"overlap_p50_ms", "ms"},
	{"overlap_p90_ms", "ms"},
	{"guarded_p50_ms", "ms"},
	{"atlas_p50_ms", "ms"},
	{"atlas_p90_ms", "ms"},
	{"search_p50_ms", "ms"},
	{"search_p90_ms", "ms"},
	{"repeat_p50_ms", "ms"},
	{"repeat_p90_ms", "ms"},
	{"runs_per_s", "1/s"},
	{"k4_runs_per_s", "1/s"},
}

// perLayerSpecs are the traced run's metrics, named layer.metric.
var perLayerSpecs = []metricSpec{
	{"matrix.kij_ms", "ms"},
	{"matrix.kij_gflops", "GFLOP/s"},
	{"exec.scb_ms", "ms"},
	{"exec.pcb_ms", "ms"},
	{"exec.sco_ms", "ms"},
	{"exec.pco_ms", "ms"},
	{"exec.pio_ms", "ms"},
	{"exec.exchange_ms", "ms"},
	{"exec.worker_busy_ms.P", "ms"},
	{"exec.worker_busy_ms.R", "ms"},
	{"exec.worker_busy_ms.S", "ms"},
	{"exec.supervisor_self_ms", "ms"},
	{"exec.alloc_mb_per_op", "MB"},
	{"exec.allocs_per_op", "count"},
	{"exec.verify_overhead_pct", "%"},
	{"journal.checkpoint_bytes", "bytes"},
	{"exec.volume_elems", "count"},
	{"exec.blocks", "count"},
	{"exec.integrity_checks", "count"},
	{"heteropart.newplan_ms", "ms"},
	{"heteropart.newplan_share", "ratio"},
	{"model.evaluate_us", "us"},
	{"partition.build_us", "us"},
	{"atlas.build_s", "s"},
	{"atlas.lookup_ns", "ns"},
	{"push.refine_ms", "ms"},
	{"push.run_ms", "ms"},
	{"push.steps_per_run", "count"},
	{"push.plateau_moves", "count"},
	{"push.memo_hit_ratio", "ratio"},
	{"push.unconverged_runs", "count"},
	{"shape.classify_us", "us"},
	{"experiment.census_call_s", "s"},
	{"nproc.run_ms", "ms"},
	{"nproc.steps_per_run", "count"},
	{"nproc.unconverged_runs", "count"},
	{"serve.handler_ms.atlas", "ms"},
	{"serve.handler_ms.search", "ms"},
	{"serve.handler_ms.repeat", "ms"},
	{"serve.loopback_ms", "ms"},
	{"serve.tier.atlas", "count"},
	{"serve.tier.search", "count"},
	{"serve.tier.cache", "count"},
	{"serve.tier.degraded", "count"},
	{"serve.tier.shed", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"self.mmm.op_ms", "ms"},
	{"self.plan.op_ms", "ms"},
	{"self.census.op_ms", "ms"},
	{"self.exec.guarded_ms", "ms"},
}

// endToEnd computes the untraced run's metrics.
func endToEnd(p *pass, setups []float64) (map[string]float64, error) {
	v := map[string]float64{"setup_s": median(setups)}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = rss
	if v["mmm_vs_kij"], err = pairedRatio(p.samples["pair.exec"], p.samples["pair.kij"]); err != nil {
		return nil, err
	}
	for _, q := range []struct {
		name, class string
		p           float64
	}{
		{"barrier_p50_ms", "barrier", 0.5}, {"barrier_p90_ms", "barrier", 0.9},
		{"overlap_p50_ms", "overlap", 0.5}, {"overlap_p90_ms", "overlap", 0.9},
		{"guarded_p50_ms", "guarded", 0.5},
		{"atlas_p50_ms", "atlas", 0.5}, {"atlas_p90_ms", "atlas", 0.9},
		{"search_p50_ms", "search", 0.5}, {"search_p90_ms", "search", 0.9},
		{"repeat_p50_ms", "repeat", 0.5}, {"repeat_p90_ms", "repeat", 0.9},
	} {
		x, err := percentile(p.samples[q.class], q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		v[q.name] = x
	}
	// Throughputs are taken at the median call: a run that wanders to
	// push's MaxSteps backstop costs 15–40 ordinary runs, and whether a
	// seed draws one or three of them would otherwise dominate a rate
	// taken over the sum.
	v["runs_per_s"] = censusRuns / median(p.samples["census.s"])
	v["k4_runs_per_s"] = 1 / median(p.samples["k4.s"])
	return v, nil
}

// gcDelta is the collector's work over the traced pass.
type gcDelta struct {
	cycles uint32
	pause  time.Duration
}

// perLayer computes the traced run's metrics from the traced pass's spans,
// samples and counts.
func perLayer(tp *pass, o ops, spans []span, atlasBuilds []float64, gc gcDelta, overhead float64) (map[string]float64, error) {
	v := map[string]float64{}
	med := func(name string) float64 { return median(durationsMS(spans, name)) }
	v["matrix.kij_ms"] = med("matrix.kij")
	v["matrix.kij_gflops"] = 2 * float64(mmmN) * float64(mmmN) * float64(mmmN) / (v["matrix.kij_ms"] / 1e3) / 1e9
	for _, a := range []string{"scb", "pcb", "sco", "pco", "pio"} {
		v["exec."+a+"_ms"] = med("exec." + a)
	}
	v["exec.exchange_ms"] = med("exec.exchange")
	for _, w := range []string{"P", "R", "S"} {
		v["exec.worker_busy_ms."+w] = med("exec.worker." + w)
	}
	v["exec.supervisor_self_ms"] = median(append(selfTimesMS(spans, "exec.scb"), selfTimesMS(spans, "exec.pcb")...))
	v["exec.alloc_mb_per_op"] = median(tp.layers["exec.alloc_mb"])
	v["exec.allocs_per_op"] = median(tp.layers["exec.allocs"])
	v["exec.verify_overhead_pct"] = (med("exec.guarded.scb")/v["exec.scb_ms"] - 1) * 100
	v["journal.checkpoint_bytes"] = median(tp.layers["journal.checkpoint_bytes"])
	v["exec.volume_elems"] = float64(tp.counts["exec.volume"])
	v["exec.blocks"] = float64(tp.counts["exec.blocks"])
	v["exec.integrity_checks"] = float64(tp.counts["exec.integrity_checks"])

	search50, err := percentile(tp.samples["search"], 0.5)
	if err != nil {
		return nil, err
	}
	v["heteropart.newplan_ms"] = med("heteropart.NewPlan")
	v["heteropart.newplan_share"] = v["heteropart.newplan_ms"] / search50
	v["model.evaluate_us"] = med("model.Evaluate") * 1e3
	v["partition.build_us"] = med("partition.Build") * 1e3
	v["atlas.build_s"] = median(atlasBuilds)
	v["atlas.lookup_ns"] = median(tp.layers["atlas.lookup_ns"])

	v["push.refine_ms"] = med("push.refine")
	v["push.run_ms"] = med("push.Run")
	v["push.steps_per_run"] = float64(tp.counts["push_steps_total"]) / float64(tp.counts["push.runs"])
	v["push.plateau_moves"] = float64(tp.counts["push_plateau_moves_total"])
	v["push.memo_hit_ratio"] = float64(tp.counts["push_memo_hits_total"]) / float64(tp.counts["push_memo_probes_total"])
	v["push.unconverged_runs"] = sum(tp.layers["push.unconverged"])
	v["shape.classify_us"] = med("shape.Classify") * 1e3
	v["experiment.census_call_s"] = med("experiment.Census") / 1e3
	v["nproc.run_ms"] = med("nproc.Run")
	v["nproc.steps_per_run"] = float64(tp.counts["nproc.steps"]) / float64(tp.counts["nproc.runs"])
	v["nproc.unconverged_runs"] = float64(tp.counts["nproc.unconverged"])

	handler := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "serve.handler" && s.Op >= 0 && s.Op < len(o.Plan) {
			c := o.Plan[s.Op].Class
			handler[c] = append(handler[c], ms(s.dur()))
		}
	}
	for _, c := range []string{"atlas", "search", "repeat"} {
		v["serve.handler_ms."+c] = median(handler[c])
	}
	v["serve.loopback_ms"] = median(selfTimesMS(spans, "serve.client"))
	for _, t := range []string{"atlas", "search", "cache", "degraded", "shed"} {
		v["serve.tier."+t] = float64(tp.counts["serve.tier."+t])
	}
	hits, misses := tp.counts["serve.cache_hits"], tp.counts["serve.cache_misses"]
	v["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)

	v["runtime.gc_cycles"] = float64(gc.cycles)
	v["runtime.gc_pause_ms"] = ms(gc.pause)
	v["trace.overhead_pct"] = overhead
	for _, n := range []string{"mmm.op", "plan.op", "census.op"} {
		v["self."+n+"_ms"] = median(selfTimesMS(spans, n))
	}
	v["self.exec.guarded_ms"] = median(append(selfTimesMS(spans, "exec.guarded.scb"), selfTimesMS(spans, "exec.guarded.pcb")...))
	return v, nil
}

// scrape renders a registry and parses it back into series → value.
func scrape(reg *metrics.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		return nil, err
	}
	return metrics.ParseText(&b)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
