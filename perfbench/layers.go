package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/preempt"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
)

// Traced-pass sizes: enough calls for stable per-layer medians while the
// three passes together stay a few seconds single-threaded.
const (
	traceCold     = 8   // single-core cold submits
	traceColdPart = 4   // partitioned cold submits
	tracePool     = 8   // hot_mix pool sets primed in the pass
	traceHot      = 240 // hot_mix stream requests on those sets
	traceSessions = 2
)

// pass is one single-threaded traced pass over a workload's inputs. It calls
// each layer's public functions in the order schedd's handlers do, with its
// own memo standing in for the daemon's, and checks that every response it
// assembles is byte-identical to the daemon's answer to the same request.
type pass struct {
	workload  string
	tr        *tracer
	schedules map[grid.Key]*core.Schedule
	plans     map[grid.Key]*sim.CompiledPlan
	runner    *grid.Runner // partition and feedback solves, on a memo of their own
	disk      *store.Disk
	lookups   int
	hits      int
	pieces    []float64
	sweeps    map[string][]float64 // "core.wcs"/"core.acs" → sweeps per solve
	simHyper  int                  // hyper-periods simulated by sim.compare
	drifts    int64
	resolves  int64
	fresh     []*core.Schedule // solved during the current request, for the codec probe
	seen      map[string]bool  // fingerprints already persisted as request blobs
	err       error
}

func newPass(workload, dir string) (*pass, error) {
	disk, err := store.Open(filepath.Join(dir, "trace-store-"+workload), store.Options{})
	if err != nil {
		return nil, err
	}
	return &pass{
		workload:  workload,
		tr:        newTracer(),
		schedules: make(map[grid.Key]*core.Schedule),
		plans:     make(map[grid.Key]*sim.CompiledPlan),
		runner:    grid.New(1, grid.NewMemo()),
		disk:      disk,
		sweeps:    make(map[string][]float64),
		seen:      make(map[string]bool),
	}, nil
}

func (p *pass) fail(err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("%s traced pass: %w", p.workload, err)
	}
}

// request runs fn under a root span, then times the codec round trip of
// every schedule the request solved, as a probe off the request path.
func (p *pass) request(root string, fn func()) {
	id := p.tr.begin(root)
	fn()
	p.tr.end(id)
	for _, s := range p.fresh {
		probe := p.tr.begin(rootProbe)
		p.tr.call("core.codec", func() {
			b, err := core.EncodeSchedule(s)
			if err == nil {
				_, err = core.DecodeSchedule(b)
			}
			p.fail(err)
		})
		p.tr.end(probe)
	}
	p.fresh = p.fresh[:0]
}

// encode marshals a response as the daemon writes it and compares it with
// the daemon's bytes.
func (p *pass) encode(v any, want []byte) []byte {
	var out []byte
	var err error
	p.tr.call("server.encode", func() { out, err = json.Marshal(v) })
	p.fail(err)
	out = append(out, '\n')
	if want != nil && !bytes.Equal(out, want) {
		p.fail(fmt.Errorf("traced response differs from the daemon's: %.120s", out))
	}
	return out
}

func (p *pass) decode(body []byte, into any) {
	var err error
	p.tr.call("server.decode", func() { err = json.Unmarshal(body, into) })
	p.fail(err)
}

func (p *pass) fingerprint(req *server.SubmitRequest) string {
	var fp string
	var ok bool
	p.tr.call("server.fingerprint", func() { fp, ok = server.SubmitFingerprint(req, 0, 0) })
	if !ok {
		p.fail(fmt.Errorf("request has no fingerprint"))
	}
	return fp
}

func (p *pass) newSet(tasks []task.Task) *task.Set {
	set, err := task.NewSet(tasks)
	p.fail(err)
	return set
}

// build is the grid runner's memoised build: key, lookup, and on a miss the
// expansion, the solve and the write-through to the disk store.
func (p *pass) build(set *task.Set, cfg core.Config, layer string) *core.Schedule {
	var key grid.Key
	p.tr.call("grid.key", func() { key, _ = grid.ScheduleKey(set, cfg) })
	p.lookups++
	if s := p.schedules[key]; s != nil {
		p.hits++
		return s
	}
	var plan *preempt.Schedule
	var err error
	p.tr.call("preempt.expand", func() { plan, err = preempt.BuildWith(set, cfg.Preempt) })
	if err != nil {
		p.fail(err)
		return nil
	}
	p.pieces = append(p.pieces, float64(len(plan.Subs)))
	var s *core.Schedule
	p.tr.call(layer, func() { s, err = core.Solve(plan, cfg) })
	if err != nil {
		p.fail(err)
		return nil
	}
	p.sweeps[layer] = append(p.sweeps[layer], float64(s.Sweeps))
	p.tr.call("store.put", func() { p.disk.PutSchedule(key, s, nil) })
	p.schedules[key] = s
	p.fresh = append(p.fresh, s)
	return s
}

func (p *pass) compile(s *core.Schedule) *sim.CompiledPlan {
	var key grid.Key
	p.tr.call("grid.plan_key", func() { key, _ = grid.PlanKey(s) })
	p.lookups++
	if pl := p.plans[key]; pl != nil {
		p.hits++
		return pl
	}
	var pl *sim.CompiledPlan
	var err error
	p.tr.call("sim.compile", func() { pl, err = sim.Compile(s) })
	p.fail(err)
	p.plans[key] = pl
	return pl
}

// solvePair is the single-core pipeline both submit and compare run:
// admission feasibility, WCS, then ACS warm-started from WCS.
func (p *pass) solvePair(set *task.Set) (wcs, acs *core.Schedule) {
	wcsCfg := core.Config{Objective: core.WorstCase}
	var err error
	p.tr.call("core.feasible", func() { err = core.Feasible(set, wcsCfg) })
	p.fail(err)
	if wcs = p.build(set, wcsCfg, "core.wcs"); wcs == nil {
		return nil, nil
	}
	return wcs, p.build(set, core.Config{Objective: core.AverageCase, WarmStart: wcs}, "core.acs")
}

func (p *pass) energyUnderAverage(s *core.Schedule) float64 {
	avg := make([]float64, len(s.Plan.Instances))
	for i := range avg {
		avg[i] = s.Plan.Set.Tasks[s.Plan.Instances[i].TaskIndex].ACEC
	}
	var e float64
	var err error
	p.tr.call("core.energy_eval", func() { e, _, err = s.EnergyUnder(avg) })
	p.fail(err)
	return e
}

// schedule assembles a single-core ACS submit/get response.
func (p *pass) schedule(set *task.Set, fp string) *server.ScheduleResponse {
	wcs, acs := p.solvePair(set)
	if acs == nil {
		return nil
	}
	wcsAvg := p.energyUnderAverage(wcs)
	imp := 0.0
	if wcsAvg > 0 {
		imp = 100 * (wcsAvg - acs.Energy) / wcsAvg
	}
	h, _ := set.Hyperperiod()
	return &server.ScheduleResponse{
		Fingerprint: fp, Objective: core.AverageCase.String(), Tasks: set.N(), HyperperiodMs: h,
		Pieces: len(acs.Plan.Subs), Sweeps: acs.Sweeps, PredictedEnergy: acs.Energy,
		WCSAvgEnergy: &wcsAvg, ImprovementPct: &imp, EndMs: acs.End, WCWorkCycles: acs.WCWork,
	}
}

// partitioned assembles a "cores" > 1 submit response.
func (p *pass) partitioned(set *task.Set, fp string, cores int) *server.ScheduleResponse {
	cfg := partition.Config{Cores: cores, Mode: partition.FirstFitDecreasing, Solver: core.Config{Objective: core.AverageCase}}
	var res *partition.Result
	var err error
	p.tr.call("partition.solve", func() { res, err = partition.Solve(context.Background(), p.runner, set, cfg) })
	if err != nil {
		p.fail(err)
		return nil
	}
	h, _ := set.Hyperperiod()
	resp := &server.ScheduleResponse{
		Fingerprint: fp, Objective: core.AverageCase.String(), Tasks: set.N(), HyperperiodMs: h,
		Cores: cores, PredictedEnergy: res.Energy,
	}
	wcsAvg := 0.0
	for i := range res.Cores {
		cs := &res.Cores[i]
		pc := server.CoreScheduleResponse{Core: cs.Core, TaskNames: []string{}}
		if cs.Set != nil {
			for _, t := range cs.Set.Tasks {
				pc.TaskNames = append(pc.TaskNames, t.Name)
			}
			s := cs.Schedule()
			pc.Fingerprint, pc.Pieces, pc.Sweeps = cs.Key, len(s.Plan.Subs), s.Sweeps
			pc.PredictedEnergy, pc.EndMs, pc.WCWorkCycles = cs.Energy(), s.End, s.WCWork
			resp.Pieces += pc.Pieces
			resp.Sweeps += pc.Sweeps
			var e float64
			p.tr.call("core.energy_eval", func() { e, err = cs.WCSAtAverage() })
			p.fail(err)
			wcsAvg += e
		}
		resp.PerCore = append(resp.PerCore, pc)
	}
	imp := 0.0
	if wcsAvg > 0 {
		imp = 100 * (wcsAvg - res.Energy) / wcsAvg
	}
	resp.WCSAvgEnergy, resp.ImprovementPct = &wcsAvg, &imp
	return resp
}

func (p *pass) submit(root string, body, want []byte) {
	p.request(root, func() {
		var req server.SubmitRequest
		p.decode(body, &req)
		fp := p.fingerprint(&req)
		set := p.newSet(req.Tasks)
		p.remember(fp, set, req.Cores)
		if req.Cores > 1 {
			p.encode(p.partitioned(set, fp, req.Cores), want)
		} else {
			p.encode(p.schedule(set, fp), want)
		}
	})
}

func (p *pass) get(set *task.Set, fp string, want []byte) {
	p.request(rootRequest, func() { p.encode(p.schedule(set, fp), want) })
}

func (p *pass) compare(root string, body, want []byte) {
	p.request(root, func() {
		var req server.CompareRequest
		p.decode(body, &req)
		fp := p.fingerprint(&req.SubmitRequest)
		wcs, acs := p.solvePair(p.newSet(req.Tasks))
		if acs == nil {
			return
		}
		pa, pb := p.compile(acs), p.compile(wcs)
		seed := stats.SeedFromString(fp)
		var imp float64
		var ra, rb *sim.Result
		var err error
		p.tr.call("sim.compare", func() {
			imp, ra, rb, err = sim.ComparePlans(pa, pb, sim.Config{Policy: sim.Greedy, Hyperperiods: req.Hyperperiods, Seed: seed})
		})
		if err != nil {
			p.fail(err)
			return
		}
		p.simHyper += 2 * req.Hyperperiods
		p.encode(&server.CompareResponse{
			Fingerprint: fp, Hyperperiods: req.Hyperperiods, Seed: seed, ImprovementPct: imp,
			ACS: server.PolicyResult{Energy: ra.Energy, DeadlineMisses: ra.DeadlineMisses, Switches: ra.Switches, MeanVoltage: ra.MeanVoltage},
			WCS: server.PolicyResult{Energy: rb.Energy, DeadlineMisses: rb.DeadlineMisses, Switches: rb.Switches, MeanVoltage: rb.MeanVoltage},
		}, want)
	})
}

// remember mirrors the daemon's first sighting of a fingerprint: the
// canonical request is persisted so GETs survive a restart.
func (p *pass) remember(fp string, set *task.Set, cores int) {
	if p.seen[fp] {
		return
	}
	p.seen[fp] = true
	p.tr.call("store.request_put", func() {
		blob, err := json.Marshal(struct {
			Tasks     []task.Task `json:"tasks"`
			Objective string      `json:"objective"`
			Starts    int         `json:"starts"`
			SubCap    int         `json:"subcap"`
			Cores     int         `json:"cores,omitempty"`
		}{set.Tasks, "acs", 0, 0, cores})
		if err == nil {
			err = p.disk.PutBlob("request-"+fp, blob)
		}
		p.fail(err)
	})
}

// checkpoint mirrors the daemon's per-session checkpoint: the controller
// snapshot and the session knobs, encoded and written as one blob.
func (p *pass) checkpoint(id string, ctrl *feedback.Controller, last []byte) {
	p.tr.call("store.blob_put", func() {
		blob, err := json.Marshal(struct {
			ID         string                    `json:"id"`
			Controller *feedback.ControllerState `json:"controller"`
			LastResp   []byte                    `json:"last_resp,omitempty"`
		}{id, ctrl.Snapshot(), last})
		if err == nil {
			err = p.disk.PutBlob("session-"+id, blob)
		}
		p.fail(err)
	})
}

// session runs one adaptive session: create, then every observe batch.
func (p *pass) session(in *inputs, u int, res [][]byte) {
	var ctrl *feedback.Controller
	s := in.sessions[u]
	lo, hi := in.units[u][0], in.units[u][1]
	p.request(rootRequest, func() {
		var req server.SessionRequest
		p.decode(in.list[lo].body, &req)
		set := p.newSet(req.Tasks)
		var err error
		p.tr.call("core.feasible", func() { err = core.Feasible(set, core.Config{Objective: core.WorstCase}) })
		p.fail(err)
		p.tr.call("feedback.create", func() {
			ctrl, err = feedback.NewController(context.Background(), set,
				feedback.Options{Runner: p.runner, Solver: core.Config{Objective: core.AverageCase}})
		})
		if err != nil {
			p.fail(err)
			return
		}
		sch := ctrl.Schedule()
		resp := &server.SessionResponse{
			SessionID: s.id, Instances: len(ctrl.TaskOf()), Tasks: set.N(), State: ctrl.State().String(),
			Schedule: server.SessionSchedule{Fingerprint: ctrl.Fingerprint(), PredictedEnergy: sch.Energy, EndMs: sch.End, WCWorkCycles: sch.WCWork},
		}
		p.checkpoint(s.id, ctrl, nil)
		p.encode(resp, at(res, lo))
	})
	if ctrl == nil {
		return
	}
	for i := lo + 1; i < hi; i++ {
		p.request(rootRequest, func() {
			var req server.ObserveRequest
			p.decode(in.list[i].body, &req)
			prev := ctrl.Resolves()
			var d feedback.Decision
			var err error
			id := len(p.tr.spans)
			p.tr.call("feedback.observe", func() { d, err = ctrl.ObserveChunk(context.Background(), req.Hyperperiods) })
			if ctrl.Resolves() > prev {
				p.tr.spans[id].Name = "feedback.resolve"
			}
			p.fail(err)
			resp := &server.ObserveResponse{SessionID: s.id, Observed: ctrl.Observed(), Drift: d.Drift, Resolved: d.Resolved, State: d.State.String()}
			if d.Resolved {
				at := d.ResolvedHyperperiod
				sch := ctrl.Schedule()
				resp.ResolvedHyperperiod = &at
				resp.Schedule = &server.SessionSchedule{Fingerprint: ctrl.Fingerprint(), PredictedEnergy: sch.Energy, EndMs: sch.End, WCWorkCycles: sch.WCWork}
			}
			p.checkpoint(s.id, ctrl, p.encode(resp, at(res, i)))
		})
	}
	p.drifts += ctrl.DriftsFired()
	p.resolves += ctrl.Resolves()
}

// run makes the pass over the workload's inputs. primed and res are the
// daemon's response bodies to the same priming and timed requests, for the
// byte checks; nil when the daemon did not serve these inputs.
func (p *pass) run(in *inputs, primed, res [][]byte) {
	switch in.workload {
	case coldSubmit:
		single, part := 0, 0
		for i, q := range in.list {
			if in.cores[q.ref] > 1 && part < traceColdPart {
				part++
			} else if in.cores[q.ref] <= 1 && single < traceCold {
				single++
			} else {
				continue
			}
			p.submit(rootRequest, q.body, at(res, i))
		}
	case hotMix:
		for i := 0; i < 2*tracePool; i += 2 {
			p.submit(rootPrime, in.prime[i].body, at(primed, i))
			p.compare(rootPrime, in.prime[i+1].body, at(primed, i+1))
		}
		n := 0
		for i, q := range in.list {
			if q.ref >= tracePool || n == traceHot {
				continue
			}
			n++
			switch q.kind {
			case kindSubmit:
				p.submit(rootRequest, q.body, at(res, i))
			case kindGet:
				fp, _ := server.SubmitFingerprint(&server.SubmitRequest{Tasks: in.sets[q.ref].Tasks}, 0, 0)
				p.get(in.sets[q.ref], fp, at(res, i))
			case kindCompare:
				p.compare(rootRequest, q.body, at(res, i))
			}
		}
	case adaptiveSession:
		for u := 0; u < min(traceSessions, len(in.units)); u++ {
			p.session(in, u, res)
		}
	}
}

// at returns the daemon's i-th response body, or nil when there is none.
func at(bs [][]byte, i int) []byte {
	if bs == nil {
		return nil
	}
	return bs[i]
}

// openStore times reopening the daemon's store directory, its recovery scan
// included.
func (p *pass) openStore(dir string) {
	probe := p.tr.begin(rootProbe)
	p.tr.call("store.open", func() {
		d, err := store.Open(dir, store.Options{})
		if err == nil {
			err = d.Close()
		}
		p.fail(err)
	})
	p.tr.end(probe)
}

func (p *pass) close() { p.fail(p.disk.Close()) }
