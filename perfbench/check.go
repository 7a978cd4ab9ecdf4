package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/task"
)

// relTol absorbs floating-point reassociation in the ACS ≤ WCS-at-average
// bound; the solver warm-starts ACS from WCS, so the bound holds exactly up
// to rounding.
const relTol = 1e-9

// verdict is the outcome of checking every timed response of a run.
type verdict struct {
	passed   []bool
	problems []string // the first few failures, for the log
	// refusals are the failed requests the program refused exactly as its
	// own reference pipeline does (see refusedAsReference): a solver defect
	// reproduced, not a serving fault. They count as failed requests, but
	// do not make the run incorrect.
	refusals []string
	// energy is the served ACS energy over the WCS baseline for each
	// distinct response (or session), in list order.
	energy []float64
}

func newVerdict(n int) *verdict {
	v := &verdict{passed: make([]bool, n)}
	for i := range v.passed {
		v.passed[i] = true
	}
	return v
}

func (v *verdict) fail(i int, format string, args ...any) {
	v.passed[i] = false
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
	}
}

// tally counts the requests that passed every check and those that failed.
func (v *verdict) tally() (passed, failed int) {
	for _, ok := range v.passed {
		if ok {
			passed++
		} else {
			failed++
		}
	}
	return passed, failed
}

// answered reports why a response cannot pass, before any content check: a
// transport error or a status other than 200.
func answered(r result) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return nil
}

// refusedAsReference reports whether a 422 body carries exactly the error the
// reference pipeline (the solver run locally, single-threaded, without the
// daemon) returns for the same set — a deterministic solver refusal of an
// admitted set, which the daemon is specified to answer with 422.
func refusedAsReference(set *task.Set, cores int, r result) (string, bool) {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(r.body, &e) != nil {
		return "", false
	}
	var want string
	if cores > 1 {
		cfg := partition.Config{Cores: cores, Mode: partition.FirstFitDecreasing, Solver: core.Config{Objective: core.AverageCase}}
		if _, err := partition.Solve(context.Background(), grid.New(1, nil), set, cfg); err != nil {
			want = "partitioned synthesis: " + err.Error()
		}
	} else if wcs, err := core.Build(set, core.Config{Objective: core.WorstCase}); err != nil {
		want = "wcs synthesis: " + err.Error()
	} else if _, err := core.Build(set, core.Config{Objective: core.AverageCase, WarmStart: wcs}); err != nil {
		want = "acs synthesis: " + err.Error()
	}
	return e.Error, want != "" && e.Error == want
}

// checkSchedule validates a submit/get body: not degraded, and the served
// ACS energy within the WCS-at-average bound. It returns served ÷ baseline.
func checkSchedule(body []byte) (float64, error) {
	var s server.ScheduleResponse
	if err := json.Unmarshal(body, &s); err != nil {
		return 0, fmt.Errorf("decoding schedule: %w", err)
	}
	if s.Degraded {
		return 0, fmt.Errorf("degraded response")
	}
	if s.WCSAvgEnergy == nil || *s.WCSAvgEnergy <= 0 {
		return 0, fmt.Errorf("no WCS-at-average baseline")
	}
	if s.PredictedEnergy > *s.WCSAvgEnergy*(1+relTol) {
		return 0, fmt.Errorf("ACS energy %g above WCS-at-average %g", s.PredictedEnergy, *s.WCSAvgEnergy)
	}
	return s.PredictedEnergy / *s.WCSAvgEnergy, nil
}

// checkCompare validates a compare body: no deadline misses under either
// schedule. It returns simulated ACS ÷ WCS energy.
func checkCompare(body []byte) (float64, error) {
	var c server.CompareResponse
	if err := json.Unmarshal(body, &c); err != nil {
		return 0, fmt.Errorf("decoding compare: %w", err)
	}
	if c.ACS.DeadlineMisses != 0 || c.WCS.DeadlineMisses != 0 {
		return 0, fmt.Errorf("deadline misses: acs %d, wcs %d", c.ACS.DeadlineMisses, c.WCS.DeadlineMisses)
	}
	if c.WCS.Energy <= 0 {
		return 0, fmt.Errorf("non-positive WCS energy %g", c.WCS.Energy)
	}
	return c.ACS.Energy / c.WCS.Energy, nil
}

// checkPrimed validates hot_mix's priming responses, which are the
// references every timed response must match byte for byte, and returns
// their energy ratios.
func checkPrimed(in *inputs, res []result) ([]float64, error) {
	var ratios []float64
	for i, r := range res {
		check := checkSchedule
		if in.prime[i].kind == kindCompare {
			check = checkCompare
		}
		ratio, err := check(r.body)
		if err != nil {
			return nil, fmt.Errorf("priming %s of pool set %d: %w", in.prime[i].kind, in.prime[i].ref, err)
		}
		ratios = append(ratios, ratio)
	}
	return ratios, nil
}

// check runs every in-run check over a workload's timed responses.
// primed holds the priming responses (hot_mix's references); storeDir is
// the stopped daemon's store, which the session replays solve through.
func check(in *inputs, primed, res []result, storeDir string) *verdict {
	v := newVerdict(len(res))
	for i, r := range res {
		err := answered(r)
		if err == nil {
			continue
		}
		q := in.list[i]
		if in.workload == coldSubmit && r.status == http.StatusUnprocessableEntity {
			if msg, ok := refusedAsReference(in.sets[q.ref], in.cores[q.ref], r); ok {
				v.passed[i] = false
				v.refusals = append(v.refusals, fmt.Sprintf("request %d, body %s: %s", i, q.body, msg))
				continue
			}
		}
		v.fail(i, "%s %s: %v", q.kind, q.path, err)
	}
	switch in.workload {
	case coldSubmit:
		for i, r := range res {
			if !v.passed[i] {
				continue
			}
			ratio, err := checkSchedule(r.body)
			if err != nil {
				v.fail(i, "%v", err)
				continue
			}
			v.energy = append(v.energy, ratio)
		}
	case hotMix:
		ratios, err := checkPrimed(in, primed)
		if err != nil {
			for i := range v.passed {
				v.fail(i, "%v", err)
			}
			return v
		}
		v.energy = ratios
		for i, r := range res {
			q := in.list[i]
			// Repeated bodies and GETs must return exactly the bytes the
			// priming submit or compare of the same pool set returned.
			want := primed[2*q.ref].body
			if q.kind == kindCompare {
				want = primed[2*q.ref+1].body
			}
			if v.passed[i] && !bytes.Equal(r.body, want) {
				v.fail(i, "%s of pool set %d: bytes differ from its first response", q.kind, q.ref)
			}
		}
	case adaptiveSession:
		if err := checkSessions(in, res, storeDir, v); err != nil {
			for i := range v.passed {
				v.fail(i, "session replay: %v", err)
			}
		}
	}
	return v
}

// checkSessions replays every session's stream through feedback.RunReplay
// and requires the daemon's answers to match: the initial schedule, the
// observation count and resolve position of every observe, and the final
// schedule. The replays also give each session's adaptive ÷ static energy.
//
// The replays solve through a memo over the daemon's own store. Its keys
// are content addresses of (task set, solver config), so the replay still
// folds observations, detects drift and builds every adapted model itself;
// only a solve of an identical problem is read back instead of repeated,
// and any schedule the store lacks is solved locally.
func checkSessions(in *inputs, res []result, storeDir string, v *verdict) error {
	disk, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return err
	}
	defer disk.Close()
	memo := grid.NewMemoOn(disk)
	ratios := make([]float64, len(in.units))
	errs := make([][]error, len(in.units)) // per request of the unit; nil = passed
	forEach(len(in.units), func(u int) {
		lo, hi := in.units[u][0], in.units[u][1]
		ratios[u], errs[u] = replaySession(grid.New(1, memo), in.sessions[u], res[lo:hi])
	})
	for u, unit := range in.units {
		failed := false
		for k, err := range errs[u] {
			if err != nil && v.passed[unit[0]+k] {
				v.fail(unit[0]+k, "session %s: %v", in.sessions[u].id, err)
				failed = true
			}
		}
		if !failed {
			v.energy = append(v.energy, ratios[u])
		}
	}
	return nil
}

// replaySession checks one session's responses (create first, then one per
// observe batch) against a local replay. It returns the replay's adaptive ÷
// static energy and one error slot per response.
func replaySession(runner *grid.Runner, s session, res []result) (float64, []error) {
	errs := make([]error, len(res))
	failAll := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	ctx := context.Background()
	ctrl, err := feedback.NewController(ctx, s.set, feedback.Options{Runner: runner, Solver: core.Config{Objective: core.AverageCase}})
	if err != nil {
		return 0, failAll(fmt.Errorf("replay controller: %w", err))
	}
	static := ctrl.Plan()
	var created server.SessionResponse
	if answered(res[0]) == nil {
		if err := json.Unmarshal(res[0].body, &created); err != nil {
			errs[0] = fmt.Errorf("decoding create: %w", err)
		} else if created.Schedule.Fingerprint != ctrl.Fingerprint() || created.Instances != len(ctrl.TaskOf()) {
			errs[0] = fmt.Errorf("initial schedule %s/%d instances, replay %s/%d",
				created.Schedule.Fingerprint, created.Instances, ctrl.Fingerprint(), len(ctrl.TaskOf()))
		}
	}
	simCfg := sim.Config{Policy: sim.Greedy}
	loop, err := feedback.RunReplay(ctx, ctrl, s.rows, observeBatch, simCfg)
	if err != nil {
		return 0, failAll(fmt.Errorf("replay: %w", err))
	}
	base, err := static.RunActuals(simCfg, s.rows)
	if err != nil {
		return 0, failAll(fmt.Errorf("static replay: %w", err))
	}
	if loop.DeadlineMisses != 0 || base.DeadlineMisses != 0 {
		return 0, failAll(fmt.Errorf("deadline misses: adaptive %d, static %d", loop.DeadlineMisses, base.DeadlineMisses))
	}
	resolveAt := ctrl.ResolveHyperperiods()
	finalFP := created.Schedule.Fingerprint
	for b := 1; b < len(res); b++ {
		if answered(res[b]) != nil {
			continue
		}
		var ob server.ObserveResponse
		if err := json.Unmarshal(res[b].body, &ob); err != nil {
			errs[b] = fmt.Errorf("decoding observe: %w", err)
			continue
		}
		lo, hi := int64((b-1)*observeBatch), int64(b*observeBatch)
		var want *int64
		for _, at := range resolveAt {
			if at > lo && at <= hi {
				at := at
				want = &at
			}
		}
		got := ob.ResolvedHyperperiod
		switch {
		case ob.Observed != hi:
			errs[b] = fmt.Errorf("observe %d reports %d hyper-periods observed, want %d", b-1, ob.Observed, hi)
		case (want == nil) != (got == nil) || (want != nil && *want != *got):
			errs[b] = fmt.Errorf("observe %d resolve position %v, replay %v", b-1, deref(got), deref(want))
		case ob.Resolved && ob.Schedule != nil:
			finalFP = ob.Schedule.Fingerprint
		}
	}
	if finalFP != ctrl.Fingerprint() && errs[len(res)-1] == nil {
		errs[len(res)-1] = fmt.Errorf("final schedule %s, replay %s", finalFP, ctrl.Fingerprint())
	}
	return loop.Energy / base.Energy, errs
}

func deref(p *int64) any {
	if p == nil {
		return "none"
	}
	return *p
}
