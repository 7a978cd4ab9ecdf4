package main

import (
	"runtime"
	"sort"
	"time"
)

// Root span names. Only "request" roots mirror a timed-stream request and
// enter the reconciliation; "prime" roots mirror untimed priming, "probe"
// roots time calls the daemon does not make on its request path.
const (
	rootRequest = "request"
	rootPrime   = "prime"
	rootProbe   = "probe"
)

// span is one timed call of a traced pass. Times are nanoseconds since the
// tracer started.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"` // heap allocations inside a leaf call
}

// tracer records spans in memory; they are written out when the run ends.
// It is single-threaded, like the passes it times.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	req   int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one; a span opened with
// nothing open is a root and starts a new request id.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.req++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// call times fn as a leaf span and counts its heap allocations. The
// allocation counter is read outside the timed interval.
func (t *tracer) call(name string, fn func()) {
	runtime.ReadMemStats(&t.ms)
	before := t.ms.Mallocs
	id := t.begin(name)
	fn()
	t.end(id)
	runtime.ReadMemStats(&t.ms)
	t.spans[id].Allocs = t.ms.Mallocs - before
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// rootOf returns each span's root span index (span ids are their indices).
func rootOf(spans []span) []int {
	out := make([]int, len(spans))
	for i := range spans {
		j := i
		for spans[j].Parent >= 0 {
			j = spans[j].Parent
		}
		out[i] = j
	}
	return out
}

// layerMedians reconciles a pass against its timed stream: for every layer
// span name, the median over "request" roots of the self time that root's
// tree spent in it (0 for a request that never called the layer). Root
// self time is the traced pass's own glue and is not a layer.
func layerMedians(spans []span) map[string]float64 {
	self := selfTimes(spans)
	roots := rootOf(spans)
	perReq := make(map[int]map[string]int64) // root index → layer → self ns
	for i, s := range spans {
		r := roots[i]
		if spans[r].Name != rootRequest {
			continue
		}
		if perReq[r] == nil {
			perReq[r] = make(map[string]int64)
		}
		if s.Parent >= 0 {
			perReq[r][s.Name] += self[i]
		}
	}
	layers := make(map[string]bool)
	for _, m := range perReq {
		for name := range m {
			layers[name] = true
		}
	}
	out := make(map[string]float64, len(layers))
	for name := range layers {
		xs := make([]float64, 0, len(perReq))
		for _, m := range perReq {
			xs = append(xs, float64(m[name]))
		}
		out[name] = median(xs) / 1e6
	}
	return out
}
