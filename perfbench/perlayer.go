package main

import "fmt"

// traceSeconds sizes the inputs of the passes over the workloads other than
// the run's own: large enough for every traced-pass quota.
const traceSeconds = 2

// layerHomes lists every timed layer call with the workload whose pass
// measures it when the run's own workload never calls it (store.open is
// always timed on the run's own store).
var layerHomes = []struct{ span, home string }{
	{"server.decode", hotMix},
	{"server.fingerprint", hotMix},
	{"server.encode", hotMix},
	{"preempt.expand", coldSubmit},
	{"core.feasible", coldSubmit},
	{"core.wcs", coldSubmit},
	{"core.acs", coldSubmit},
	{"core.energy_eval", coldSubmit},
	{"core.codec", coldSubmit},
	{"partition.solve", coldSubmit},
	{"grid.key", hotMix},
	{"store.put", coldSubmit},
	{"store.blob_put", adaptiveSession},
	{"store.open", ""},
	{"sim.compile", hotMix},
	{"sim.compare", hotMix},
	{"feedback.create", adaptiveSession},
	{"feedback.observe", adaptiveSession},
	{"feedback.resolve", adaptiveSession},
}

// reconciliation sets the run's traced layers against its end-to-end p50.
type reconciliation struct {
	layers map[string]float64 // median per-request self time (ms) of each layer
	sum    float64
}

// calls returns the self times (ms) and allocation counts of every span
// named name in the pass.
func (p *pass) calls(name string) (ms, allocs []float64) {
	self := selfTimes(p.tr.spans)
	for i, s := range p.tr.spans {
		if s.Name == name {
			ms = append(ms, float64(self[i])/1e6)
			allocs = append(allocs, float64(s.Allocs))
		}
	}
	return ms, allocs
}

// tracePasses makes one traced pass per workload, the run's own over the
// very inputs the daemon just served, and derives the per-layer metrics.
func tracePasses(in *inputs, seed uint64, m *measurement, runDir string) (map[string]metric, *reconciliation, map[string][]span, error) {
	passes := make(map[string]*pass)
	spans := make(map[string][]span)
	for _, name := range workloadNames {
		pin, primed, res := in, m.primed, m.results
		if name != in.workload {
			var err error
			if pin, err = generate(name, seed, traceSeconds); err != nil {
				return nil, nil, nil, err
			}
			primed, res = nil, nil
		}
		p, err := newPass(name, runDir)
		if err != nil {
			return nil, nil, nil, err
		}
		p.run(pin, bodies(primed), bodies(res))
		if name == in.workload {
			p.openStore(m.storeDir)
		}
		p.close()
		if p.err != nil {
			return nil, nil, nil, p.err
		}
		passes[name], spans[name] = p, p.tr.spans
	}
	own := passes[in.workload]
	pick := func(span, home string) *pass {
		for _, p := range []*pass{own, passes[home]} {
			if p == nil {
				continue
			}
			if ms, _ := p.calls(span); len(ms) > 0 {
				return p
			}
		}
		return nil
	}
	out := make(map[string]metric)
	for _, l := range layerHomes {
		p := pick(l.span, l.home)
		if p == nil {
			return nil, nil, nil, fmt.Errorf("no traced pass calls %s", l.span)
		}
		ms, allocs := p.calls(l.span)
		out[l.span+"_ms"] = metric{median(ms), "ms"}
		out[l.span+"_allocs"] = metric{median(allocs), "count"}
	}
	counts := func(home string, has func(*pass) bool) *pass {
		if has(own) {
			return own
		}
		return passes[home]
	}
	pp := counts(coldSubmit, func(p *pass) bool { return len(p.pieces) > 0 })
	out["preempt.pieces"] = metric{median(pp.pieces), "count"}
	out["core.wcs_sweeps"] = metric{median(pp.sweeps["core.wcs"]), "count"}
	out["core.acs_sweeps"] = metric{median(pp.sweeps["core.acs"]), "count"}
	gp := counts(hotMix, func(p *pass) bool { return p.lookups > 0 })
	out["grid.hit_ratio"] = metric{float64(gp.hits) / float64(gp.lookups), "ratio"}
	sp := counts(hotMix, func(p *pass) bool { return p.simHyper > 0 })
	simMs, _ := sp.calls("sim.compare")
	out["sim.hyperperiods_per_s"] = metric{float64(sp.simHyper) / (sum(simMs) / 1e3), "1/s"}
	fp := passes[adaptiveSession]
	out["feedback.drifts"] = metric{float64(fp.drifts), "count"}
	out["feedback.resolves"] = metric{float64(fp.resolves), "count"}

	rec := &reconciliation{layers: layerMedians(own.tr.spans)}
	for _, v := range rec.layers {
		rec.sum += v
	}
	out["server.batch_wait_ms"] = metric{float64(m.batchWait) / 1e6, "ms"}
	out["server.residual_ms"] = metric{finite(percentile(m.latencies(), 50)) - rec.sum, "ms"}
	return out, rec, spans, nil
}

func bodies(res []result) [][]byte {
	if res == nil {
		return nil
	}
	out := make([][]byte, len(res))
	for i, r := range res {
		out[i] = r.body
	}
	return out
}
