package core

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// memoFixture is one random committed solver state: a feasible set solved
// for a random number of sweeps, so the evaluator and the push trial are
// exercised on the states real sweeps see rather than on a fresh start.
func memoFixture(t *testing.T, rng *stats.RNG, trial int) (*Schedule, *scenarioSet) {
	t.Helper()
	var model power.Model = power.DefaultModel()
	n, util := 3+rng.Intn(3), 0.7
	if trial%3 == 2 {
		// A non-SimpleInverse model takes the generic evaluation paths,
		// whose voltage inversion is iterative: keep those sets small.
		alpha, err := power.NewAlpha(1.0, 0.4, 1.5, 0.7, 4.0)
		if err != nil {
			t.Fatal(err)
		}
		model, n, util = alpha, 3, 0.3
	}
	cfg := Config{Model: model, MaxSweeps: 1 + rng.Intn(4)}
	if trial%2 == 0 {
		cfg.Objective = WorstCase
	}
	set, err := workload.RandomFeasible(rng, workload.RandomConfig{
		N: n, Ratio: 0.1 + 0.4*rng.Float64(), Utilization: util,
	}, 50, func(s *task.Set) bool { return Feasible(s, cfg) == nil })
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sc *scenarioSet
	if cfg.Objective == AverageCase && trial%4 == 1 {
		sc = s.buildScenarios(3, uint64(trial)|1)
	}
	return s, sc
}

// TestEnergyFromMatchesFullEval: every probe the sweeps can issue — end-times
// moved over a dirty region [pos, stable), or a workload transfer between
// adjacent pieces of an instance — evaluates through the prefix caches and
// the suffix memo's re-convergence exits to the from-scratch recursion
// within 1e-12 relative. Some probes are committed and the memo refreshed
// behind them (resnap's own re-convergence exit), so later probes exit into
// entries written by different passes.
func TestEnergyFromMatchesFullEval(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 18; trial++ {
		s, sc := memoFixture(t, rng, trial)
		n := len(s.Plan.Subs)
		var ev objEval
		ev.reset(s, sc)
		end := make([]float64, n)
		wc := make([]float64, n)
		avg := make([]float64, n)
		for probe := 0; probe < 400; probe++ {
			copy(end, s.End)
			copy(wc, s.WCWork)
			copy(avg, s.AvgWork)
			var pos, stable, idx int
			positions := s.Plan.ByInstance[rng.Intn(len(s.Plan.ByInstance))]
			if probe%3 == 2 && len(positions) > 1 {
				// A split transfer: the dirty region ends after the
				// instance's last piece.
				k := rng.Intn(len(positions) - 1)
				pa, pb := positions[k], positions[k+1]
				d := (2*rng.Float64() - 1) * math.Min(s.WCWork[pa], s.WCWork[pb])
				s.WCWork[pa] += d
				s.WCWork[pb] -= d
				idx = s.Plan.Subs[pa].InstanceIndex
				deriveAvgWorkInstance(s.Plan, s.WCWork, s.AvgWork, idx)
				if sc != nil {
					for k := range sc.loads {
						sc.rederiveInstance(s, k, idx)
					}
				}
				pos, stable = pa, positions[len(positions)-1]+1
			} else {
				// End-time moves over [pos, stable): tiny ones stay on the
				// committed voltages, large ones cross clamps and releases.
				pos = rng.Intn(n)
				stable = pos + 1 + rng.Intn(min(n-pos, 3))
				scale := math.Pow(10, -1-6*rng.Float64())
				for q := pos; q < stable; q++ {
					s.End[q] += (2*rng.Float64() - 1) * scale
				}
				idx = -1
			}
			got := ev.energyFrom(pos, stable)
			want := ev.full()
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("trial %d probe %d: energyFrom(%d, %d) = %.17g, from scratch %.17g (rel %.3g)",
					trial, probe, pos, stable, got, want, math.Abs(got-want)/math.Abs(want))
			}
			if rng.Intn(5) == 0 {
				ev.rebuild(pos)
				ev.resnap(pos, stable)
				continue
			}
			copy(s.End, end)
			copy(s.WCWork, wc)
			copy(s.AvgWork, avg)
			if sc != nil && idx >= 0 {
				for k := range sc.loads {
					sc.rederiveInstance(s, k, idx)
				}
			}
		}
	}
}

// fullRipple is the reference push trial: End[pos] = e, then every
// downstream work-bearing end moved forward to the minimum its worst-case
// chain requires, scanning the whole suffix.
func fullRipple(s *Schedule, end []float64, pos int, e, tcMax float64) (lastMod int, ok bool) {
	end[pos] = e
	lastMod = pos
	prev := e
	for q := pos + 1; q < len(end); q++ {
		if s.WCWork[q] <= deadWork {
			continue
		}
		loQ := math.Max(prev, s.Plan.Subs[q].Release) + s.WCWork[q]*tcMax
		if end[q] < loQ {
			if loQ > s.Plan.Subs[q].Deadline+1e-9 {
				return lastMod, false
			}
			end[q] = loQ
			lastMod = q
		}
		prev = end[q]
	}
	return lastMod, true
}

// TestPushTrialMatchesFullRipple: sweepPush's O(ripple) trial writes
// bit-identical ends and reports the same last moved position and deadline
// verdict as the full-suffix ripple, and restore reinstalls the committed
// ends exactly — also when the committed chain carries violations the
// ripple must repair.
func TestPushTrialMatchesFullRipple(t *testing.T) {
	rng := stats.NewRNG(72)
	for trial := 0; trial < 12; trial++ {
		s, _ := memoFixture(t, rng, trial)
		n := len(s.Plan.Subs)
		tcMax := s.Model.CycleTime(s.Model.VMax())
		// Pull a few committed ends below their chain bound, by amounts
		// from an ulp-scale rounding slip to a visible violation.
		for k := rng.Intn(4); k > 0; k-- {
			q := rng.Intn(n)
			if s.WCWork[q] > deadWork {
				s.End[q] -= math.Pow(10, -12+10*rng.Float64())
			}
		}
		committed := append([]float64(nil), s.End...)
		ref := make([]float64, n)
		pt := pushTrial{s: s, tcMax: tcMax, saved: make([]float64, n)}
		for pos := 0; pos < n; pos++ {
			if s.WCWork[pos] <= deadWork {
				continue
			}
			pt.begin(pos)
			lo, hi := s.End[pos]-2*rng.Float64(), s.Plan.Subs[pos].Deadline+0.5
			for k := 0; k < 12; k++ {
				e := lo + (hi-lo)*rng.Float64()
				copy(ref, committed)
				wantLast, wantOK := fullRipple(s, ref, pos, e, tcMax)
				gotLast, gotOK := pt.trial(e)
				if gotLast != wantLast || gotOK != wantOK {
					t.Fatalf("trial %d pos %d e=%g: got (%d, %v), full ripple (%d, %v)",
						trial, pos, e, gotLast, gotOK, wantLast, wantOK)
				}
				for q := range ref {
					if math.Float64bits(s.End[q]) != math.Float64bits(ref[q]) {
						t.Fatalf("trial %d pos %d e=%g: End[%d] = %.17g, full ripple %.17g",
							trial, pos, e, q, s.End[q], ref[q])
					}
				}
			}
			pt.restore()
			for q := range committed {
				if math.Float64bits(s.End[q]) != math.Float64bits(committed[q]) {
					t.Fatalf("trial %d pos %d: restore left End[%d] = %.17g, committed %.17g",
						trial, pos, q, s.End[q], committed[q])
				}
			}
		}
	}
}

// TestSplitDirtyEndExact: the dirty region sweepSplits gives a transfer
// probe is exact. Every End, WCWork and load at or past refillSplit's bound
// equals the committed value, and energyFrom exiting into the suffix memo
// there matches the from-scratch recursion within 1e-12 relative — for WCS,
// the point ACS objective, 3-scenario ACS and the Alpha model, over
// transfers δ anywhere in [−wa, wb] (the non-negativity bounds, which
// contain the sweep's [dLo, dHi]), including the endpoints that kill a
// piece and transfers that revive one. Pairs are visited in the sweep's
// ascending order and some probes are committed behind a resnap at the same
// bound, so later probes exit into entries that resnap wrote. A split sweep
// leaves AvgWork exactly deriveAvgWork(WCWork), although WCS probes never
// re-derive it.
func TestSplitDirtyEndExact(t *testing.T) {
	rng := stats.NewRNG(73)
	moved := 0
	for trial := 0; trial < 16; trial++ {
		s, sc := memoFixture(t, rng, trial)
		loadSets := 1
		if sc != nil {
			loadSets = len(sc.loads)
		}
		ws := newWorkspace(s.Plan, loadSets)
		if len(ws.pairs) == 0 {
			continue
		}
		ev := &ws.ev
		n := len(s.Plan.Subs)
		end, wc := make([]float64, n), make([]float64, n)
		committed := make([][]float64, loadSets)
		for i := range committed {
			committed[i] = make([]float64, n)
		}
		for probe := 0; probe < 400; probe++ {
			k := probe % len(ws.pairs)
			if k == 0 {
				ev.reset(s, sc) // a new sweep
			}
			p := ws.pairs[k]
			copy(end, s.End)
			copy(wc, s.WCWork)
			for i, loads := range ev.loadSets {
				copy(committed[i], loads)
			}
			s.beginSplit(sc, ws, p)
			wa, wb := s.WCWork[p.pa], s.WCWork[p.pb]
			d := -wa + (wa+wb)*rng.Float64()
			switch rng.Intn(4) {
			case 0:
				d = -wa
			case 1:
				d = wb
			}
			s.WCWork[p.pa], s.WCWork[p.pb] = wa+d, wb-d
			for _, q := range []int{p.pa, p.pb} {
				if wc[q] <= deadWork && s.WCWork[q] > deadWork {
					s.End[q] = s.Plan.Subs[q].Deadline - rng.Float64()
				}
			}
			bound := s.refillSplit(ws, p)
			for q := bound; q < n; q++ {
				if s.End[q] != end[q] || s.WCWork[q] != wc[q] {
					t.Fatalf("trial %d probe %d: pair (%d, %d) moved End/WCWork at %d, past its bound %d",
						trial, probe, p.pa, p.pb, q, bound)
				}
				for i, loads := range ev.loadSets {
					if loads[q] != committed[i][q] {
						t.Fatalf("trial %d probe %d: pair (%d, %d) moved load set %d at %d, past its bound %d",
							trial, probe, p.pa, p.pb, i, q, bound)
					}
				}
			}
			got := ev.energyFrom(p.pa, bound)
			want := ev.full()
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("trial %d probe %d: energyFrom(%d, %d) = %.17g, from scratch %.17g",
					trial, probe, p.pa, bound, got, want)
			}
			if rng.Intn(4) == 0 {
				deriveAvgWorkInstance(s.Plan, s.WCWork, s.AvgWork, p.idx)
				ev.rebuild(p.pa)
				ev.resnap(p.pa, bound)
				continue
			}
			copy(s.End, end)
			copy(s.WCWork, wc)
			for i, loads := range ev.loadSets {
				copy(loads, committed[i])
			}
		}

		copy(wc, s.WCWork)
		s.sweepSplits(sc, ws)
		for q := range wc {
			if s.WCWork[q] != wc[q] {
				moved++
				break
			}
		}
		avg := make([]float64, n)
		deriveAvgWork(s.Plan, s.WCWork, avg)
		for q := range avg {
			if math.Float64bits(s.AvgWork[q]) != math.Float64bits(avg[q]) {
				t.Fatalf("trial %d (%v): after a split sweep AvgWork[%d] = %.17g, derived %.17g",
					trial, s.Objective, q, s.AvgWork[q], avg[q])
			}
		}
	}
	if moved == 0 {
		t.Fatal("no split sweep committed a transfer: the AvgWork check never ran on a moved split")
	}
}
