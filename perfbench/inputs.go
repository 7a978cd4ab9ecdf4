package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	coldSubmit      = "cold_submit"
	hotMix          = "hot_mix"
	adaptiveSession = "adaptive_session"
)

var workloadNames = []string{coldSubmit, hotMix, adaptiveSession}

// Task-set shape shared by every workload: the paper's §4 random sets at the
// ratio where runtime variation (and so the ACS gain) is largest.
const (
	setTasks = 4
	setRatio = 0.1
	setUtil  = 0.7
)

// Request-list sizes per measured second. The lists are fixed per (seed,
// seconds), so every run of a workload does identical solver and simulator
// work; the rates only size them so a run measures about --seconds on a
// 2-core host.
const (
	coldPerSecond     = 12
	hotPerSecond      = 450
	sessionsPerSecond = 2.25
	maxSessions       = 60 // under the daemon's default SessionLimit of 64; sessions are never evicted
)

// Workload shapes.
const (
	coldCoresEvery = 8    // every 8th cold period pattern is submitted with "cores":2
	hotPool        = 16   // distinct sets behind hot_mix
	hotHorizon     = 2000 // compare hyper-periods: simulation is most of a compare's CPU
	warmups        = 4    // untimed warm-up submits of cold_submit and adaptive_session
	switchEvery    = 480  // ModeSwitch regime length (hyper-periods)
	sessionHorizon = 4 * switchEvery
	observeBatch   = 120 // hyper-periods per observe: 4 per regime, one of which re-solves
	structureSeed  = 0x5eedcafe
)

// periodPool is the §4 generator's period pool (workload.RandomConfig's
// default): hyper-periods stay at or below 200 ms.
var periodPool = []int64{10, 20, 25, 40, 50, 100, 200}

// kind is the endpoint a request exercises.
type kind int

const (
	kindSubmit kind = iota
	kindGet
	kindCompare
	kindCreate
	kindObserve
)

func (k kind) String() string {
	return [...]string{"submit", "get", "compare", "create", "observe"}[k]
}

// request is one HTTP exchange of a workload's fixed list.
type request struct {
	kind kind
	path string
	body []byte // nil for GET
	// ref indexes the workload's sets: the cold set, the hot pool entry, or
	// the adaptive session the request belongs to.
	ref int
}

// session is one adaptive_session stream: the set it was created with and
// every hyper-period row it observes, in plan instance order.
type session struct {
	id   string
	set  *task.Set
	rows [][]float64
}

// inputs is everything one workload run sends, generated from the seed alone.
type inputs struct {
	workload string
	sets     []*task.Set
	cores    []int // per set: 0 single-core, 2 partitioned
	sessions []session
	// prime is sent, untimed, after each daemon start; list is the timed
	// stream. units groups list indices that one client sends back to back
	// (a whole session for adaptive_session, one request otherwise).
	prime []request
	list  []request
	units [][2]int
}

// periodPatterns returns n period tuples drawn from the §4 generator's pool
// by a fixed stream that does not depend on the workload seed. A set's
// period tuple fixes its hyper-period and piece count, which explain most
// of its solve time; holding the tuples fixed across seeds while the seed
// draws everything else (execution-cycle weights, order, request mix,
// observation streams) keeps seed-to-seed spread down to what the program
// itself varies.
func periodPatterns(stream uint64, n int) [][]int64 {
	rng := stats.NewRNG(structureSeed ^ stream)
	out := make([][]int64, n)
	for i := range out {
		p := make([]int64, setTasks)
		for j := range p {
			p[j] = rng.ChoiceInt(periodPool)
		}
		out[i] = p
	}
	return out
}

// genSet draws a task set with the given periods the way workload.Random
// does (uniform utilisation weights, WCEC scaled to setUtil per core, ACEC
// midway in the support, unit capacitance) and redraws until the daemon's
// admission accepts it. With solved set, it also redraws sets whose WCS
// synthesis fails: hot_mix and adaptive_session measure the serving and
// online paths over schedules that exist, while cold_submit keeps every
// admitted set, so a solver refusal shows there (see check.go).
func genSet(rng *stats.RNG, periods []int64, cores int, solved bool) (*task.Set, error) {
	m := power.DefaultModel()
	tcMax := m.CycleTime(m.VMax())
	n := max(cores, 1)
	for try := 0; try < 100; try++ {
		tasks := make([]task.Task, len(periods))
		for i, p := range periods {
			wcec := rng.Uniform(0.2, 1.0) * float64(p) / tcMax
			tasks[i] = task.Task{
				Name: fmt.Sprintf("T%d", i+1), Period: p, WCEC: wcec,
				BCEC: setRatio * wcec, ACEC: 0.5 * (1 + setRatio) * wcec, Ceff: 1,
			}
		}
		set, err := task.NewSet(tasks)
		if err != nil {
			return nil, err
		}
		if set, err = set.ScaleWCEC(setUtil * float64(n) / set.UtilizationAt(tcMax)); err != nil {
			return nil, err
		}
		if cores > 1 {
			if _, err := partition.Admit(set, partition.Config{Cores: cores}); err == nil {
				return set, nil
			}
		} else if core.Feasible(set, core.Config{}) == nil {
			if !solved {
				return set, nil
			}
			if _, err := core.Build(set, core.Config{Objective: core.WorstCase}); err == nil {
				return set, nil
			}
		}
	}
	return nil, fmt.Errorf("no admissible set with periods %v on %d cores", periods, n)
}

// mustJSON encodes a request body; the body types are fixed structs, so
// encoding cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func submitBody(set *task.Set, cores int) []byte {
	return mustJSON(server.SubmitRequest{Tasks: set.Tasks, Cores: cores})
}

func compareBody(set *task.Set) []byte {
	return mustJSON(server.CompareRequest{
		SubmitRequest: server.SubmitRequest{Tasks: set.Tasks}, Hyperperiods: hotHorizon,
	})
}

// generate builds a workload's inputs from the seed and the run length.
// Equal arguments give byte-identical bodies.
func generate(name string, seed uint64, seconds int) (*inputs, error) {
	rng := stats.NewRNG(seed)
	in := &inputs{workload: name}
	// Warm-up sets are the same for every seed: they are set-up, not
	// measured input, and fixing them keeps setup_s to the program's cost.
	warm := func(stream uint64) error {
		wrng := stats.NewRNG(structureSeed + stream)
		for _, p := range periodPatterns(stream, warmups) {
			set, err := genSet(wrng, p, 0, true)
			if err != nil {
				return err
			}
			in.prime = append(in.prime, request{kind: kindSubmit, path: "/v1/schedules", body: submitBody(set, 0)})
		}
		return nil
	}
	switch name {
	case coldSubmit:
		n := coldPerSecond * seconds
		// The request order follows the fixed period tuples too: which
		// solves overlap between the two clients then depends on the seed
		// only through the sets' weights.
		for i, p := range periodPatterns(1, n) {
			cores := 0
			if i%coldCoresEvery == coldCoresEvery-1 {
				cores = 2
			}
			set, err := genSet(rng, p, cores, false)
			if err != nil {
				return nil, err
			}
			in.sets = append(in.sets, set)
			in.cores = append(in.cores, cores)
			in.list = append(in.list, request{kind: kindSubmit, path: "/v1/schedules", body: submitBody(set, cores), ref: i})
		}
		if err := warm(2); err != nil {
			return nil, err
		}
	case hotMix:
		fps := make([]string, hotPool)
		for i, p := range periodPatterns(3, hotPool) {
			set, err := genSet(rng, p, 0, true)
			if err != nil {
				return nil, err
			}
			fp, ok := server.SubmitFingerprint(&server.SubmitRequest{Tasks: set.Tasks}, 0, 0)
			if !ok {
				return nil, fmt.Errorf("pool set %d has no fingerprint", i)
			}
			fps[i] = fp
			in.sets = append(in.sets, set)
			in.cores = append(in.cores, 0)
			in.prime = append(in.prime,
				request{kind: kindSubmit, path: "/v1/schedules", body: submitBody(set, 0), ref: i},
				request{kind: kindCompare, path: "/v1/compare", body: compareBody(set), ref: i})
		}
		// Each block of 20 slots holds 12 submits, 5 GETs and 3 compares of
		// one pool set, cycling through the pool, so every set gets the same
		// mix; the seed shuffles the order.
		n := hotPerSecond * seconds
		for _, i := range rng.Perm(n) {
			u := i / 20 % hotPool
			switch slot := i % 20; {
			case slot < 12:
				in.list = append(in.list, request{kind: kindSubmit, path: "/v1/schedules", body: in.prime[2*u].body, ref: u})
			case slot < 17:
				in.list = append(in.list, request{kind: kindGet, path: "/v1/schedules/" + fps[u], ref: u})
			default:
				in.list = append(in.list, request{kind: kindCompare, path: "/v1/compare", body: in.prime[2*u+1].body, ref: u})
			}
		}
	case adaptiveSession:
		n := min(maxSessions, int(sessionsPerSecond*float64(seconds)+0.5))
		pats := periodPatterns(4, n)
		streams := make([]uint64, n)
		for i := range streams {
			streams[i] = rng.Uint64()
		}
		sessions := make([]session, n)
		reqs := make([][]request, n)
		errs := make([]error, n)
		forEach(n, func(i int) { sessions[i], reqs[i], errs[i] = genSession(streams[i], pats[i], i) })
		for i := range sessions {
			if errs[i] != nil {
				return nil, errs[i]
			}
			in.sets = append(in.sets, sessions[i].set)
			in.cores = append(in.cores, 0)
			in.sessions = append(in.sessions, sessions[i])
			in.units = append(in.units, [2]int{len(in.list), len(in.list) + len(reqs[i])})
			in.list = append(in.list, reqs[i]...)
		}
		if err := warm(5); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if in.units == nil {
		for i := range in.list {
			in.units = append(in.units, [2]int{i, i + 1})
		}
	}
	return in, nil
}

// genSession builds session i: its set, its ModeSwitch observation stream
// in plan instance order, and its create and observe requests. The sessions
// run a fixed suite of task sets, drawn from a seed-independent stream like
// their period tuples: an online deployment's applications stay put while
// their runtime workload varies, so the seed draws only the observation
// stream.
func genSession(stream uint64, periods []int64, i int) (session, []request, error) {
	set, err := genSet(stats.NewRNG(structureSeed+uint64(100+i)), periods, 0, true)
	if err != nil {
		return session{}, nil, err
	}
	ins, err := set.Instances()
	if err != nil {
		return session{}, nil, err
	}
	taskOf := make([]int, len(ins))
	for j := range ins {
		taskOf[j] = ins[j].TaskIndex
	}
	sc, err := workload.NewScenario(set, workload.ScenarioConfig{
		Kind: workload.ModeSwitch, Seed: stream, SwitchEvery: switchEvery,
	})
	if err != nil {
		return session{}, nil, err
	}
	rows, err := sc.Actuals(sessionHorizon, taskOf)
	if err != nil {
		return session{}, nil, err
	}
	s := session{id: fmt.Sprintf("b%d", i), set: set, rows: rows}
	reqs := []request{{kind: kindCreate, path: "/v1/sessions", ref: i,
		body: mustJSON(server.SessionRequest{SubmitRequest: server.SubmitRequest{Tasks: set.Tasks}, SessionID: s.id})}}
	for b := 0; b*observeBatch < len(rows); b++ {
		reqs = append(reqs, request{kind: kindObserve, path: "/v1/sessions/" + s.id + "/observe", ref: i,
			body: mustJSON(server.ObserveRequest{Hyperperiods: rows[b*observeBatch : (b+1)*observeBatch]})})
	}
	return s, reqs, nil
}

// forEach calls fn(0..n-1) from one goroutine per client-count worker and
// returns when every call has.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
