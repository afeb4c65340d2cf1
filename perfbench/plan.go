package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/atlas"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/serve"
	wire "repro/serve"
)

// Headers that carry the benchmark's span identity to the handler wrapper
// in the traced pass.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// serverSearchSeed is the Push refinement seed the server uses when a
// request names none (serve.Config.SearchSeed's default).
const serverSearchSeed = 1

// Warm-up scenarios: Pr above the stream's range keeps the fresh one out
// of every generated request's cache key.
var (
	warmAtlas = planOp{Class: "atlas", Ratio: "2:1.5:1", Alg: "SCB"}
	warmFresh = planOp{Class: "search", Ratio: "4.05:2.95:1", Alg: "SCB"}
)

// planEnv is the serving section's one-time state: the atlas, an
// in-process server on a loopback listener and one keep-alive client.
// refs memoises the reference plan of each scenario checked so far; it is
// checker work, so it is filled outside both set-up and the op timers.
type planEnv struct {
	at         *atlas.Atlas
	srv        *serve.Server
	hs         *http.Server
	served     chan error
	url        string
	tr         *http.Transport
	client     *http.Client
	refs       map[string][]byte
	rec        atomic.Pointer[recorder]
	atlasBuild time.Duration
}

func setupPlan() (*planEnv, error) {
	e := &planEnv{refs: map[string][]byte{}}
	grid, err := atlas.NewGrid(atlasScale, atlasPrMax, atlasRrMax)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	e.at, err = atlas.Build(context.Background(), atlas.BuildConfig{
		Algorithm: model.SCB, Topology: model.FullyConnected, N: planN, Grid: grid, Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, fmt.Errorf("plan: atlas build: %w", err)
	}
	e.atlasBuild = time.Since(t0)
	if e.srv, err = serve.New(serve.Config{Atlas: e.at}); err != nil {
		return nil, err
	}
	if _, rejected := e.srv.WarmAtlas(); rejected != 0 {
		return nil, fmt.Errorf("plan: %d atlas cells failed the live cross-check", rejected)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := e.srv.Handler()
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := e.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		s := time.Now()
		h.ServeHTTP(w, r)
		t := time.Now()
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		rec.add("serve.handler", parent, op, s, t)
	})}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.url = "http://" + ln.Addr().String() + "/v1/plan"
	// One client, one connection: the closed loop never has more than one
	// request in flight.
	e.tr = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	e.client = &http.Client{Transport: e.tr}

	warm := newPass(nil)
	warmRepeat := warmFresh
	warmRepeat.Class = "repeat"
	e.run(warm, []planOp{warmAtlas, warmFresh, warmRepeat}, 0)
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("plan warm-up: %s", strings.Join(warm.failures, "; "))
	}
	return e, nil
}

// close stops the server and waits for its Serve loop to return.
func (e *planEnv) close() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.tr.CloseIdleConnections()
	e.hs = nil
}

// scenario resolves a request's machine exactly as the server does.
func scenario(op planOp) (model.Algorithm, model.Machine, error) {
	ratio, err := heteropart.ParseRatio(op.Ratio)
	if err != nil {
		return 0, model.Machine{}, err
	}
	alg, err := heteropart.ParseAlgorithm(op.Alg)
	if err != nil {
		return 0, model.Machine{}, err
	}
	spec, err := heteropart.ParseTopologySpec(op.Topology)
	if err != nil {
		return 0, model.Machine{}, err
	}
	return alg, spec.Apply(heteropart.DefaultMachine(ratio)), nil
}

// reference is heteropart.NewPlan for the scenario, JSON-encoded.
func (e *planEnv) reference(op planOp) ([]byte, error) {
	if b, ok := e.refs[op.key()]; ok {
		return b, nil
	}
	alg, m, err := scenario(op)
	if err != nil {
		return nil, err
	}
	p, err := heteropart.NewPlan(alg, m, planN)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	e.refs[op.key()] = b
	return b, nil
}

// wantSource is the answer tier each request class must be served from.
var wantSource = map[string]string{"atlas": wire.SourceAtlas, "search": wire.SourceSearch, "repeat": wire.SourceCache}

// reply is one response as the client received it.
type reply struct {
	status int
	data   []byte
	err    error
}

// run sends the ops, numbered from base, one at a time over the
// keep-alive connection. The timer covers the request write through the
// last body byte. Decoding and checks, which compute reference plans, run
// after the last op, so no checker work sits between two timed requests.
func (e *planEnv) run(p *pass, ops []planOp, base int) {
	rec := p.rec
	if rec != nil {
		e.rec.Store(rec)
		defer e.rec.Store(nil)
	}
	before, err := scrape(e.srv.MetricsRegistry())
	if err != nil {
		p.fatal("plan: scrape server metrics: %v", err)
		return
	}
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		b, err := json.Marshal(wire.PlanRequest{N: planN, Ratio: op.Ratio, Algorithm: op.Alg, Topology: op.Topology})
		if err != nil {
			p.fatal("plan: encode request %d: %v", i, err)
			return
		}
		bodies[i] = b
	}
	replies := make([]reply, len(ops))
	for j, op := range ops {
		i := base + j
		req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(bodies[j]))
		if err != nil {
			replies[j].err = err
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		root := rec.open("plan.op", -1, i, time.Now())
		s := time.Now()
		cid := rec.open("serve.client", root, i, s)
		if rec != nil {
			req.Header.Set(opHeader, strconv.Itoa(i))
			req.Header.Set(spanHeader, strconv.Itoa(cid))
		}
		status, data, err := e.do(req)
		t := time.Now()
		rec.close(cid, t)
		rec.close(root, time.Now())
		p.sample(op.Class, ms(t.Sub(s)))
		replies[j] = reply{status, data, err}
	}
	tiers := map[string]int64{}
	for j, op := range ops {
		p.attempted++
		tier, err := e.check(op, replies[j])
		if err != nil {
			p.fail("plan op %d (%s %s): %v", base+j, op.Class, op.key(), err)
		}
		tiers[tier]++
	}
	after, err := scrape(e.srv.MetricsRegistry())
	if err != nil {
		p.fatal("plan: scrape server metrics: %v", err)
		return
	}
	// The tier mix read from response bodies must agree with the server's
	// own answer counters.
	for _, c := range []struct{ body, metric string }{
		{"atlas", "atlas"}, {"search", "searched"}, {"cache", "cache"},
	} {
		if d := int64(answers(after, c.metric) - answers(before, c.metric)); tiers[c.body] != d {
			p.fatal("plan: %d %s answers in bodies, pland_answers_total says %d", tiers[c.body], c.body, d)
		}
	}
	if d := int64(answers(after, "degraded") - answers(before, "degraded")); tiers["degraded"]+tiers["shed"] != d {
		p.fatal("plan: %d degraded answers in bodies, pland_answers_total says %d", tiers["degraded"]+tiers["shed"], d)
	}
	for _, t := range []string{"atlas", "search", "cache", "degraded", "shed"} {
		p.count("serve.tier."+t, tiers[t])
	}
	hits := after["pland_cache_hits_total"] - before["pland_cache_hits_total"]
	misses := after["pland_cache_misses_total"] - before["pland_cache_misses_total"]
	p.count("serve.cache_hits", int64(hits))
	p.count("serve.cache_misses", int64(misses))
}

// do performs one round trip and drains the body so the connection is
// reused.
func (e *planEnv) do(req *http.Request) (int, []byte, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// check verifies one response: 200, the answer tier its class must take,
// and a Plan byte-identical to heteropart.NewPlan for the scenario. It
// returns the tier the body reports.
func (e *planEnv) check(op planOp, r reply) (string, error) {
	if r.err != nil {
		return "", r.err
	}
	if r.status != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.data))
	}
	var resp struct {
		Plan           json.RawMessage
		Source         string
		Degraded       bool
		DegradedReason wire.DegradedReason
	}
	if err := json.Unmarshal(r.data, &resp); err != nil {
		return "", fmt.Errorf("decode: %w", err)
	}
	tier := resp.Source
	switch {
	case resp.Degraded && resp.DegradedReason == wire.DegradedLoadShed:
		tier = "shed"
	case resp.Degraded:
		tier = "degraded"
	}
	if want := wantSource[op.Class]; tier != want {
		return tier, fmt.Errorf("answered from tier %q, want %q", tier, want)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, resp.Plan); err != nil {
		return tier, fmt.Errorf("plan: %w", err)
	}
	want, err := e.reference(op)
	if err != nil {
		return tier, fmt.Errorf("reference plan: %w", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		return tier, errors.New("plan differs from heteropart.NewPlan for the same scenario")
	}
	return tier, nil
}

// answers is the server's pland_answers_total series for a tier.
func answers(m map[string]float64, tier string) float64 {
	return m[`pland_answers_total{tier="`+tier+`"}`]
}

// layerCalls times the planner's layers directly on the stream's first
// search scenarios: NewPlan, the server's Push refinement, candidate
// construction and evaluation, and atlas lookups.
func (e *planEnv) layerCalls(p *pass, ops []planOp, limit int) {
	rec := p.rec
	var lattice []partition.Ratio
	n := 0
	for i, op := range ops {
		switch op.Class {
		case "atlas":
			r, err := heteropart.ParseRatio(op.Ratio)
			if err != nil {
				p.fatal("plan: %v", err)
				return
			}
			lattice = append(lattice, r)
			continue
		case "search":
		default:
			continue
		}
		if n == limit {
			continue
		}
		n++
		alg, m, err := scenario(op)
		if err != nil {
			p.fatal("plan: %v", err)
			return
		}
		s := time.Now()
		_, err = heteropart.NewPlan(alg, m, planN)
		rec.add("heteropart.NewPlan", -1, i, s, time.Now())
		if err != nil {
			p.fail("plan layer NewPlan %s: %v", op.key(), err)
		}
		s = time.Now()
		// A refinement that hits the MaxSteps backstop is still a served
		// answer (its summary says Converged: false), so only errors fail.
		_, err = push.RunContext(context.Background(), push.Config{N: planN, Ratio: m.Ratio, Seed: serverSearchSeed, Beautify: true})
		rec.add("push.refine", -1, i, s, time.Now())
		if err != nil {
			p.fail("plan layer refine %s: %v", op.key(), err)
		}
		for _, sh := range partition.AllShapes {
			s = time.Now()
			g, err := partition.Build(sh, planN, m.Ratio)
			rec.add("partition.Build", -1, i, s, time.Now())
			if err != nil {
				continue // infeasible candidates are part of the comparison
			}
			snap := g.Snapshot()
			s = time.Now()
			_ = model.Evaluate(alg, m, snap)
			rec.add("model.Evaluate", -1, i, s, time.Now())
		}
	}
	if len(lattice) == 0 {
		return
	}
	const rounds = 200
	s := time.Now()
	for r := 0; r < rounds; r++ {
		for _, ratio := range lattice {
			if _, _, ok := e.at.Lookup(ratio); !ok {
				p.fail("plan layer: lattice ratio %v missed the atlas", ratio)
				return
			}
		}
	}
	d := time.Since(s)
	p.layer("atlas.lookup_ns", float64(d.Nanoseconds())/float64(rounds*len(lattice)))
}
