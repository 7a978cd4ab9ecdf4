package main

import "testing"

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: rootRequest, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: 10..50 counts once
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		{ID: 4, Parent: 3, Name: "d", Start: 62, End: 65},
		{ID: 5, Parent: 0, Name: "e", Start: 95, End: 120}, // clipped to the parent's end
	}
	want := []int64{100 - 40 - 10 - 5, 20, 30, 10 - 3, 3, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestingAndLayerMedians(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		root := tr.begin(rootRequest)
		tr.call("layer.every", func() {})
		if i == 0 {
			tr.call("layer.once", func() {})
		}
		tr.end(root)
	}
	probe := tr.begin(rootProbe)
	tr.call("layer.probe", func() {})
	tr.end(probe)

	roots := rootOf(tr.spans)
	for i, s := range tr.spans {
		if s.Parent < 0 && s.Name != rootRequest && s.Name != rootProbe {
			t.Errorf("leaf %q opened as a root", s.Name)
		}
		if r := tr.spans[roots[i]]; r.Req != s.Req {
			t.Errorf("span %q in request %d under a root of request %d", s.Name, s.Req, r.Req)
		}
	}
	if n := tr.spans[len(tr.spans)-1].Req; n != 4 {
		t.Errorf("%d request ids, want 4", n)
	}
	med := layerMedians(tr.spans)
	if _, ok := med["layer.probe"]; ok {
		t.Error("probe spans entered the reconciliation")
	}
	if med["layer.once"] != 0 {
		t.Errorf("a layer one request in three calls has median %g, want 0", med["layer.once"])
	}
	if _, ok := med["layer.every"]; !ok || len(med) != 2 {
		t.Errorf("layer medians %v, want layer.every and layer.once", med)
	}
}
