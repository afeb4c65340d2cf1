package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/trace"
)

// mmmEnv is the executor section's one-time state: seeded inputs, their
// serial-kij products, the two partitions of the workload's ratio, and a
// directory for guarded runs' checkpoints.
type mmmEnv struct {
	inputs  [mmmInputs][2]*matrix.Dense
	refs    [mmmInputs]*matrix.Dense
	grids   map[partition.Shape]*partition.Grid
	machine model.Machine
	dir     string
}

func setupMMM(seed int64, out string, ratio partition.Ratio) (*mmmEnv, error) {
	e := &mmmEnv{grids: map[partition.Shape]*partition.Grid{}, machine: model.DefaultMachine(ratio)}
	rng := sectionRNG(seed, "mmm-inputs")
	for i := range e.inputs {
		for k := range e.inputs[i] {
			m := matrix.New(mmmN)
			m.FillRandom(rng)
			e.inputs[i][k] = m
		}
		e.refs[i] = matrix.New(mmmN)
		matrix.MulKIJ(e.refs[i], e.inputs[i][0], e.inputs[i][1])
	}
	for _, s := range mmmShapes {
		g, err := partition.Build(s, mmmN, ratio)
		if err != nil {
			return nil, fmt.Errorf("mmm: build %v: %w", s, err)
		}
		e.grids[s] = g
	}
	dir, err := os.MkdirTemp(out, "ckpt-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	// Warm-up: every algorithm once, alternating shapes, plus one guarded
	// run, so pools, page faults and lazy state settle before timing.
	warm := []mmmOp{{Class: "guarded", Alg: model.SCB, Shape: mmmShapes[0]}}
	for i, alg := range []model.Algorithm{model.SCB, model.PCB, model.SCO, model.PCO, model.PIO} {
		warm = append(warm, mmmOp{Class: "warm", Alg: alg, Shape: mmmShapes[i%len(mmmShapes)]})
	}
	p := newPass(nil)
	e.run(p, warm, 0)
	if p.failed > 0 {
		e.close()
		return nil, fmt.Errorf("mmm warm-up: %s", strings.Join(p.failures, "; "))
	}
	return e, nil
}

func (e *mmmEnv) close() { os.RemoveAll(e.dir) }

// multiply dispatches to the executor entry point for the algorithm.
func multiply(cfg exec.Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *exec.Stats, error) {
	switch cfg.Algorithm {
	case model.SCB, model.PCB:
		return exec.Multiply(cfg, g, a, b)
	case model.SCO, model.PCO:
		return exec.MultiplyOverlap(cfg, g, a, b)
	default:
		return exec.MultiplyPIO(cfg, g, a, b)
	}
}

// execSpan names the span of an executor call.
func execSpan(op mmmOp) string {
	name := "exec." + strings.ToLower(op.Alg.String())
	if op.Class == "guarded" {
		name = "exec.guarded." + strings.ToLower(op.Alg.String())
	}
	return name
}

// run executes the ops, numbered from base. Each op times one executor
// call and one serial kij on the same inputs; every check runs after both
// timers stopped.
func (e *mmmEnv) run(p *pass, ops []mmmOp, base int) {
	rec := p.rec
	for j, op := range ops {
		i := base + j
		p.attempted++
		a, b := e.inputs[op.Input][0], e.inputs[op.Input][1]
		g := e.grids[op.Shape]
		cfg := exec.Config{Machine: e.machine, Algorithm: op.Alg}
		ckpt := ""
		if op.Class == "guarded" {
			ckpt = filepath.Join(e.dir, fmt.Sprintf("op%d.ckpt", i))
			cfg.Verify, cfg.Checkpoint = true, ckpt
		}
		kij := matrix.New(mmmN)
		root := rec.open("mmm.op", -1, i, time.Now())

		var kijD, execD time.Duration
		var c *matrix.Dense
		var st *exec.Stats
		var err error
		var m0, m1 runtime.MemStats
		runKij := func() {
			s := time.Now()
			matrix.MulKIJ(kij, a, b)
			t := time.Now()
			kijD = t.Sub(s)
			rec.add("matrix.kij", root, i, s, t)
		}
		runExec := func() {
			var xt *trace.Trace
			var xt0 time.Time
			if rec != nil {
				if op.Class == "barrier" {
					runtime.ReadMemStats(&m0)
				}
				xt, xt0 = trace.New(), time.Now()
				cfg.Trace = xt
			}
			s := time.Now()
			c, st, err = multiply(cfg, g, a, b)
			t := time.Now()
			execD = t.Sub(s)
			if rec == nil {
				return
			}
			if op.Class == "barrier" {
				runtime.ReadMemStats(&m1)
				p.layer("exec.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
				p.layer("exec.allocs", float64(m1.Mallocs-m0.Mallocs))
			}
			id := rec.add(execSpan(op), root, i, s, t)
			// The executor's own spans ("exchange", "worker P", …) become
			// children of the call's span.
			for _, sp := range xt.Spans() {
				rec.add("exec."+strings.ReplaceAll(sp.Name, " ", "."), id, i, xt0.Add(sp.Start), xt0.Add(sp.End))
			}
		}
		if op.KijFirst {
			runKij()
			runExec()
		} else {
			runExec()
			runKij()
		}
		rec.close(root, time.Now())

		switch op.Class {
		case "barrier", "overlap":
			p.sample(op.Class, ms(execD))
			p.sample("pair.exec", ms(execD))
			p.sample("pair.kij", ms(kijD))
		case "guarded":
			p.sample(op.Class, ms(execD))
		}
		if err := e.check(op, c, kij, st, err, ckpt, p); err != nil {
			p.fail("mmm op %d (%s %v %v): %v", i, op.Class, op.Alg, op.Shape, err)
			continue
		}
		p.count("exec.volume", st.TotalVolume)
		p.count("exec.blocks", int64(st.Blocks))
		p.count("exec.integrity_checks", int64(st.IntegrityChecks))
	}
}

// check verifies one op: the product is bit-identical to the paired kij
// product (and that to the set-up reference), the measured traffic equals
// Eq 1's VoC, and a guarded run verified tiles, corrected nothing and left
// a checkpoint.
func (e *mmmEnv) check(op mmmOp, c, kij *matrix.Dense, st *exec.Stats, err error, ckpt string, p *pass) error {
	if err != nil {
		return err
	}
	if !bitEqual(kij, e.refs[op.Input]) {
		return fmt.Errorf("serial kij product differs from the set-up reference")
	}
	if !bitEqual(c, kij) {
		return fmt.Errorf("product not bit-identical to the paired serial kij product")
	}
	if voc := e.grids[op.Shape].VoC(); st.TotalVolume != voc {
		return fmt.Errorf("measured volume %d != VoC %d", st.TotalVolume, voc)
	}
	if op.Class != "guarded" {
		return nil
	}
	defer os.Remove(ckpt)
	if st.IntegrityChecks == 0 || st.CorruptionsCorrected != 0 || st.BlocksRecomputed != 0 {
		return fmt.Errorf("verify: %d tiles checked, %d corrected, %d recomputed", st.IntegrityChecks, st.CorruptionsCorrected, st.BlocksRecomputed)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if fi.Size() == 0 {
		return fmt.Errorf("checkpoint %s is empty", ckpt)
	}
	if p.rec != nil {
		p.layer("journal.checkpoint_bytes", float64(fi.Size()))
	}
	return nil
}

// bitEqual reports whether two matrices hold identical float64 bits.
func bitEqual(x, y *matrix.Dense) bool {
	if x == nil || y == nil || x.N() != y.N() {
		return false
	}
	a, b := x.Data(), y.Data()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
