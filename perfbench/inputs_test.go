package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/server"
)

func bodiesOf(in *inputs) [][]byte {
	var out [][]byte
	for _, rs := range [][]request{in.prime, in.list} {
		for _, r := range rs {
			out = append(out, []byte(r.path), r.body)
		}
	}
	return out
}

func TestSeedGivesByteIdenticalBodies(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := generate(w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		c, err := generate(w, 8, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		ab, bb, cb := bodiesOf(a), bodiesOf(b), bodiesOf(c)
		if len(ab) != len(bb) {
			t.Fatalf("%s: %d vs %d bodies for one seed", w, len(ab), len(bb))
		}
		for i := range ab {
			if !bytes.Equal(ab[i], bb[i]) {
				t.Fatalf("%s: body %d differs between two generations of seed 7", w, i)
			}
		}
		same := len(ab) == len(cb)
		for i := 0; same && i < len(ab); i++ {
			same = bytes.Equal(ab[i], cb[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generated identical bodies", w)
		}
	}
}

func TestGeneratedInputsAreWellFormed(t *testing.T) {
	cold, err := generate(coldSubmit, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.list) != 2*coldPerSecond || len(cold.prime) != warmups {
		t.Errorf("cold_submit: %d timed, %d priming requests", len(cold.list), len(cold.prime))
	}
	parts := 0
	for _, q := range cold.list {
		var req server.SubmitRequest
		if err := json.Unmarshal(q.body, &req); err != nil || len(req.Tasks) != setTasks {
			t.Fatalf("cold body %s: %v", q.body, err)
		}
		if req.Cores == 2 {
			parts++
		}
	}
	if parts != len(cold.list)/coldCoresEvery {
		t.Errorf("%d partitioned cold submits of %d, want one in %d", parts, len(cold.list), coldCoresEvery)
	}

	hot, err := generate(hotMix, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[kind]int{}
	for _, q := range hot.list {
		kinds[q.kind]++
		if q.kind == kindGet {
			fp, _ := server.SubmitFingerprint(&server.SubmitRequest{Tasks: hot.sets[q.ref].Tasks}, 0, 0)
			if !strings.HasSuffix(q.path, "/"+fp) {
				t.Fatalf("GET %s does not address pool set %d", q.path, q.ref)
			}
		}
	}
	if kinds[kindSubmit] == 0 || kinds[kindGet] == 0 || kinds[kindCompare] == 0 {
		t.Errorf("hot_mix kinds %v, want all three", kinds)
	}

	ad, err := generate(adaptiveSession, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for u, unit := range ad.units {
		if got := unit[1] - unit[0]; got != 1+sessionHorizon/observeBatch {
			t.Fatalf("session %d has %d requests", u, got)
		}
		var ob server.ObserveRequest
		if err := json.Unmarshal(ad.list[unit[0]+1].body, &ob); err != nil || len(ob.Hyperperiods) != observeBatch {
			t.Fatalf("session %d first observe: %v", u, err)
		}
		if len(ob.Hyperperiods[0]) != len(ad.sessions[u].rows[0]) {
			t.Fatalf("session %d observe rows are %d wide, stream %d", u, len(ob.Hyperperiods[0]), len(ad.sessions[u].rows[0]))
		}
	}
}
