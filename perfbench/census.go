package main

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/nproc"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/shape"
)

// censusEnv is the batch section's state: a registry exposing the push
// engine's process-wide counters so each call's useful-to-attempt ratios
// are read where the work happens.
type censusEnv struct {
	reg     *metrics.Registry
	workers int
	k4Ratio nproc.Ratio
}

func setupCensus(w workload) (*censusEnv, error) {
	e := &censusEnv{reg: metrics.NewRegistry(), workers: runtime.GOMAXPROCS(0), k4Ratio: nproc.Ratio(w.K4Ratio)}
	push.RegisterMetrics(e.reg)
	// Warm-up: one Census call and one K=4 run, with the same checks.
	warm := newPass(nil)
	e.run(warm, []censusOp{{Class: "census", Seed: 1, Ratio: w.Census[0]}, {Class: "k4", Seed: 1}}, 0)
	if warm.failed > 0 {
		return nil, fmt.Errorf("census warm-up: %s", strings.Join(warm.failures, "; "))
	}
	return e, nil
}

// run executes the ops, numbered from base.
func (e *censusEnv) run(p *pass, ops []censusOp, base int) {
	rec := p.rec
	for j, op := range ops {
		i := base + j
		p.attempted++
		root := rec.open("census.op", -1, i, time.Now())
		var err error
		switch op.Class {
		case "census":
			err = e.census(p, op, i, root)
		case "k4":
			err = e.k4(p, op, i, root)
		}
		rec.close(root, time.Now())
		if err != nil {
			p.fail("census op %d (%s seed %d): %v", i, op.Class, op.Seed, err)
		}
	}
}

// census runs one Census call on one ratio with a worker per core.
// Outside the timer it checks the row and, for the first cycle over the
// ratios, recomputes it with Workers: 1.
func (e *censusEnv) census(p *pass, op censusOp, i, root int) error {
	ratio := op.Ratio
	cfg := experiment.CensusConfig{
		N: censusN, RunsPerRatio: censusRuns, Ratios: []partition.Ratio{ratio},
		Seed: op.Seed, Beautify: true, Workers: e.workers,
	}
	before, err := scrape(e.reg)
	if err != nil {
		return err
	}
	s := time.Now()
	rows, err := experiment.Census(cfg)
	t := time.Now()
	p.rec.add("experiment.Census", root, i, s, t)
	p.sample("census.s", t.Sub(s).Seconds())
	if err != nil {
		return err
	}
	after, err := scrape(e.reg)
	if err != nil {
		return err
	}
	for _, k := range []string{"push_steps_total", "push_plateau_moves_total", "push_memo_hits_total", "push_memo_probes_total"} {
		p.count(k, int64(after[k]-before[k]))
	}
	p.count("push.runs", censusRuns)
	if len(rows) != 1 {
		return fmt.Errorf("%d rows, want 1", len(rows))
	}
	row := rows[0]
	total := 0
	for a, c := range row.Counts {
		total += c
		p.count("census.archetype."+a.String(), int64(c))
	}
	if row.Completed != censusRuns || row.Failed != 0 || total != row.Completed {
		return fmt.Errorf("ratio %v: completed %d, failed %d, archetypes sum to %d", ratio, row.Completed, row.Failed, total)
	}

	if op.Check {
		cfg.Workers = 1
		serial, err := experiment.Census(cfg)
		if err != nil {
			return fmt.Errorf("serial recomputation: %w", err)
		}
		if got := serial[0]; got.Completed != row.Completed || got.MeanSteps != row.MeanSteps || got.MeanVoCDrop != row.MeanVoCDrop || !maps.Equal(got.Counts, row.Counts) {
			return fmt.Errorf("ratio %v: Workers: 1 recomputation %+v differs from %+v", ratio, got, row)
		}
	}
	if p.rec == nil {
		return nil
	}
	// Traced pass: replay the runs one by one through push.Run and
	// shape.Classify; the archetypes must match the row.
	arch := map[shape.Archetype]int{}
	for run := 0; run < censusRuns; run++ {
		s := time.Now()
		// Census seeds run r of its first ratio with Seed + r.
		res, err := push.Run(push.Config{N: censusN, Ratio: ratio, Seed: op.Seed + int64(run), Beautify: true})
		p.rec.add("push.Run", root, i, s, time.Now())
		if err != nil {
			return err
		}
		if !res.Converged {
			// A run that exhausts push's MaxSteps backstop is still a
			// valid census sample (the census classifies its final
			// state), so it is counted, not failed.
			p.layer("push.unconverged", 1)
		}
		s = time.Now()
		a := shape.Classify(res.Final)
		p.rec.add("shape.Classify", root, i, s, time.Now())
		arch[a]++
	}
	if !maps.Equal(arch, row.Counts) {
		return fmt.Errorf("ratio %v: replayed archetypes %v differ from the row's %v", ratio, arch, row.Counts)
	}
	return nil
}

func (e *censusEnv) k4(p *pass, op censusOp, i, root int) error {
	ratio := e.k4Ratio
	s := time.Now()
	res, err := nproc.Run(nproc.RunConfig{N: k4N, Ratio: ratio, Seed: op.Seed})
	t := time.Now()
	p.rec.add("nproc.Run", root, i, s, t)
	p.sample("k4.s", t.Sub(s).Seconds())
	if err != nil {
		return err
	}
	p.count("nproc.runs", 1)
	p.count("nproc.steps", int64(res.Steps))
	if !res.Converged {
		p.count("nproc.unconverged", 1) // hit the MaxSteps backstop; see census
	}
	if res.FinalVoC > res.InitialVoC {
		return fmt.Errorf("VoC rose %d → %d", res.InitialVoC, res.FinalVoC)
	}
	if err := res.Final.Validate(); err != nil {
		return err
	}
	for proc, want := range ratio.Counts(k4N) {
		if got := res.Final.Count(proc); got != want {
			return fmt.Errorf("processor %d holds %d cells, want %d", proc, got, want)
		}
	}
	return nil
}
