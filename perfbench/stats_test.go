package main

import (
	"errors"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/task"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{99, 90, 9, false}, // too few samples for any rung: lowest rung, flagged
		{100, 90, 10, true},
		{999, 90, 99, true}, // p99 would leave 9 beyond
		{1000, 99, 10, true},
		{2250, 99, 22, true},
		{11250, 99, 112, true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, ok=%v; want p%g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}

// TestFailureCounting checks that transport errors, non-200s, degraded
// responses, bound violations and byte mismatches all count as failures,
// and that a failed request counts as missing every latency limit.
func TestFailureCounting(t *testing.T) {
	good := []byte(`{"fingerprint":"f","predicted_energy":7,"wcs_avg_energy":10}` + "\n")
	set, err := task.NewSet([]task.Task{
		{Name: "A", Period: 10, WCEC: 2, ACEC: 1.5, BCEC: 1, Ceff: 1},
		{Name: "B", Period: 20, WCEC: 4, ACEC: 3, BCEC: 2, Ceff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := &inputs{workload: coldSubmit, list: make([]request, 6), sets: []*task.Set{set}, cores: []int{0}}
	res := []result{
		{status: http.StatusOK, body: good, latency: 4 * time.Millisecond},
		{err: errors.New("connection reset")},
		{status: http.StatusServiceUnavailable, body: []byte(`{"error":"overloaded"}`)},
		{status: http.StatusOK, body: []byte(`{"predicted_energy":7,"wcs_avg_energy":10,"degraded":true}`)},
		{status: http.StatusOK, body: []byte(`{"predicted_energy":11,"wcs_avg_energy":10}`)},
		// A 422 the reference solver does not reproduce on the same set.
		{status: http.StatusUnprocessableEntity, body: []byte(`{"error":"wcs synthesis: boom"}`)},
	}
	v := check(cold, nil, res, "")
	if passed, failed := v.tally(); passed != 1 || failed != 5 || len(v.refusals) != 0 {
		t.Fatalf("cold tally = %d passed, %d failed, %d refusals; want 1, 5, 0 (problems %q)", passed, failed, len(v.refusals), v.problems)
	}
	if len(v.energy) != 1 || v.energy[0] != 0.7 {
		t.Errorf("energy ratios %v, want [0.7] from the one passing response", v.energy)
	}
	m := &measurement{results: res, verdict: v, wall: time.Second, setups: []float64{1}}
	e2e := m.endToEnd(cold, 1)
	if got := e2e["success_ratio"].Value; got != 1.0/6 {
		t.Errorf("success_ratio = %g, want 1/6", got)
	}
	if got := e2e["throughput_rps"].Value; got != 1 {
		t.Errorf("throughput_rps = %g, want 1 (passed requests only)", got)
	}
	if got := e2e["latency_p50_ms"].Value; got != math.MaxFloat64 {
		t.Errorf("latency_p50_ms = %g, want the failure sentinel when most requests failed", got)
	}

	// hot_mix: every timed response must repeat its priming reference.
	cmp := []byte(`{"acs":{"energy":8},"wcs":{"energy":10}}` + "\n")
	hot := &inputs{
		workload: hotMix,
		prime:    []request{{kind: kindSubmit}, {kind: kindCompare}},
		list:     []request{{kind: kindSubmit}, {kind: kindGet}, {kind: kindCompare}, {kind: kindGet}},
	}
	primed := []result{{status: http.StatusOK, body: good}, {status: http.StatusOK, body: cmp}}
	v = check(hot, primed, []result{
		{status: http.StatusOK, body: good},
		{status: http.StatusOK, body: good},
		{status: http.StatusOK, body: cmp},
		{status: http.StatusOK, body: []byte(`{"fingerprint":"g","predicted_energy":7,"wcs_avg_energy":10}` + "\n")},
	}, "")
	if passed, failed := v.tally(); passed != 3 || failed != 1 || v.passed[3] {
		t.Errorf("hot tally = %d passed, %d failed (%v); want the mismatched GET alone to fail", passed, failed, v.passed)
	}
}
