// Command perfbench is the repository's benchmark: it starts schedd as its own
// process on a fresh store, drives it over loopback HTTP from closed-loop
// clients with a fixed request list generated from the seed, checks every
// response, and prints the end-to-end metrics. With -trace 1 it also makes a
// single-threaded traced pass per workload through each layer's public
// functions and prints the per-layer metrics and the reconciliation of
// per-layer self times against end-to-end latency.
//
// Run it through perfbench/run.sh from the repository root, which builds
// schedd and perfbench first:
//
//	sh perfbench/run.sh --workload hot_mix --seed 7 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose checks fail prints it
// and exits 1.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run sets up (daemon start plus priming);
// setup_s is the median.
const setupRuns = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies what was measured, where and with which inputs.
type provenance struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

// errChecksFailed marks a run that completed but failed in-run checks.
var errChecksFailed = errors.New("in-run checks failed")

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fset.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fset.Uint64("seed", 1, "workload seed: the same seed gives the same request bodies")
	seconds := fset.Int("seconds", 25, "measured seconds: sizes the fixed request list")
	traced := fset.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	bin := fset.String("schedd", "", "schedd binary to benchmark")
	out := fset.String("out", ".bench_build", "directory for run state, results and span files")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *bin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -schedd, -seconds >= 1 and -trace 0 or 1")
	}
	prov := provenance{
		Commit: commit(), SourceSHA256: sourceHash("."), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
	}
	provLine, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", provLine)

	t0 := time.Now()
	in, err := generate(*wl, *seed, *seconds)
	if err != nil {
		return err
	}
	genTime := time.Since(t0)
	runDir, err := filepath.Abs(filepath.Join(*out, "run", fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	m, err := measure(in, *bin, runDir, *traced == 1)
	if err != nil {
		return err
	}
	tailP, beyond, _ := tailPercentile(len(in.list))
	fmt.Fprintf(stdout, "workload %s: %d requests from %d closed-loop clients, tail p%g (%d samples beyond), %d setups\n",
		*wl, len(in.list), clients, tailP, beyond, setupRuns)
	fmt.Fprintf(stdout, "phases: generate %.1fs, setups %.1fs, stream %.1fs, checks %.1fs\n",
		genTime.Seconds(), sum(m.setups), m.wall.Seconds(), m.checkTime.Seconds())
	for _, p := range m.verdict.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	for _, r := range m.verdict.refusals {
		fmt.Fprintf(stdout, "solver refusal reproduced by the reference pipeline: %s\n", r)
	}
	passed, failed := m.verdict.tally()
	res := summary{Correct: failed == len(m.verdict.refusals), Attempted: len(in.list), Failed: failed, Metrics: m.endToEnd(in, passed)}
	record := map[string]any{"provenance": prov, "tail_percentile": tailP, "tail_beyond": beyond,
		"problems": m.verdict.problems, "solver_refusals": m.verdict.refusals}
	if *traced == 1 {
		layers, rec, spans, err := tracePasses(in, *seed, m, runDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "reconciliation %s: Σ layer self-time medians %.4f ms vs latency_p50_ms %.4f ms, residual %.4f ms\n",
			*wl, rec.sum, res.Metrics["latency_p50_ms"].Value, layers["server.residual_ms"].Value)
		for _, name := range sortedKeys(rec.layers) {
			fmt.Fprintf(stdout, "  layer %-22s %.4f ms\n", name, rec.layers[name])
		}
		record["end_to_end"] = res.Metrics
		record["reconciliation"] = map[string]any{"layers_ms": rec.layers, "sum_ms": rec.sum, "residual_ms": layers["server.residual_ms"].Value}
		spanFile := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *wl, *seed))
		if err := writeJSON(spanFile, map[string]any{"provenance": prov, "passes": spans}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", spanFile)
		res.Metrics = layers
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "metric %-28s %.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	record["result"] = res
	lat := m.latencies()
	for i, x := range lat {
		if math.IsInf(x, 1) {
			lat[i] = -1 // failed request
		}
	}
	record["latencies_ms"] = lat
	if err := writeJSON(filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", *wl, *seed, *traced)), record); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

// measurement is everything one run observed of the daemon.
type measurement struct {
	setups    []float64 // seconds
	primed    []result
	results   []result
	wall      time.Duration
	cpu       time.Duration
	peakRSS   int64
	batchWait time.Duration // traced runs only
	storeDir  string
	verdict   *verdict
	checkTime time.Duration
}

// measure sets the daemon up setupRuns times, keeps the last one, fires the
// timed stream at it and checks the answers.
func measure(in *inputs, bin, runDir string, traced bool) (*measurement, error) {
	m := &measurement{}
	client := newClient()
	defer client.CloseIdleConnections()
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(bin, filepath.Join(runDir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		primed, err := prime(client, d.base, in.prime)
		if err != nil {
			d.stop()
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		// Every set-up starts from an empty store, so the priming answers
		// must repeat byte for byte.
		for j := range m.primed {
			if !bytes.Equal(m.primed[j].body, primed[j].body) {
				d.stop()
				return nil, fmt.Errorf("set-up %d answered priming request %d differently from set-up 0", i, j)
			}
		}
		m.primed = primed
	}
	defer d.stop()
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	m.results, m.wall = fire(client, d.base, in.list, in.units)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if traced {
		if m.batchWait, err = d.batchWait(client); err != nil {
			return nil, err
		}
	}
	client.CloseIdleConnections()
	d.stop()
	m.peakRSS, m.storeDir = d.peakRSS, d.storeDir
	t0 := time.Now()
	m.verdict = check(in, m.primed, m.results, d.storeDir)
	m.checkTime = time.Since(t0)
	return m, nil
}

// latencies returns every timed request's latency in ms; a request that
// failed any check counts as missing every latency limit.
func (m *measurement) latencies() []float64 {
	out := make([]float64, len(m.results))
	for i, r := range m.results {
		out[i] = math.Inf(1)
		if m.verdict.passed[i] {
			out[i] = float64(r.latency) / 1e6
		}
	}
	return out
}

// finite keeps JSON encodable when failures push a percentile to +Inf.
func finite(x float64) float64 {
	if math.IsInf(x, 1) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

func (m *measurement) endToEnd(in *inputs, passed int) map[string]metric {
	attempted := float64(len(in.list))
	tailP, _, _ := tailPercentile(len(in.list))
	energy := math.NaN()
	if len(m.verdict.energy) > 0 {
		energy = mean(m.verdict.energy)
	}
	return map[string]metric{
		"throughput_rps":     {float64(passed) / m.wall.Seconds(), "1/s"},
		"latency_p50_ms":     {finite(percentile(m.latencies(), 50)), "ms"},
		"latency_tail_ms":    {finite(percentile(m.latencies(), tailP)), "ms"},
		"success_ratio":      {float64(passed) / attempted, "ratio"},
		"cpu_ms_per_request": {float64(m.cpu) / 1e6 / attempted, "ms"},
		"peak_rss_mb":        {float64(m.peakRSS) / (1 << 20), "MB"},
		"energy_ratio":       {finite(energy), "ratio"},
		"setup_s":            {median(append([]float64(nil), m.setups...)), "s"},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the VCS revision perfbench was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout; see source_sha256)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceHash digests every Go source and module file under root (hidden
// directories such as .git and .bench_build excluded), so runs from
// checkouts without VCS metadata still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod" || e.Name() == "go.sum") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
