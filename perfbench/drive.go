package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: this host's nproc. Each client
// sends its next request only after the previous reply has fully arrived,
// as schedd's callers do (planners wait for their schedule, the online
// runtime for its observation ack).
const clients = 2

// result is what one request got back.
type result struct {
	status  int
	body    []byte
	latency time.Duration // send to last response byte
	err     error
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
}

// send performs one request and reads the whole response.
func send(client *http.Client, base string, r request) result {
	method := http.MethodPost
	var body io.Reader
	if r.body == nil {
		method = http.MethodGet
	} else {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, base+r.path, body)
	if err != nil {
		return result{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return result{err: err, latency: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return result{status: resp.StatusCode, body: b, err: err, latency: time.Since(t0)}
}

// fire sends list from the closed-loop clients: each client claims the next
// unit (a run of consecutive list indices) and sends it in order. It returns
// the per-request results and the wall time of the whole stream.
func fire(client *http.Client, base string, list []request, units [][2]int) ([]result, time.Duration) {
	out := make([]result, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= len(units) {
					return
				}
				for i := units[u][0]; i < units[u][1]; i++ {
					out[i] = send(client, base, list[i])
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// prime sends the untimed priming list and fails on any non-200: set-up that
// does not complete leaves nothing meaningful to measure.
func prime(client *http.Client, base string, list []request) ([]result, error) {
	units := make([][2]int, len(list))
	for i := range units {
		units[i] = [2]int{i, i + 1}
	}
	res, _ := fire(client, base, list, units)
	for i, r := range res {
		if r.err != nil || r.status != http.StatusOK {
			return nil, fmt.Errorf("priming %s %s: status %d, err %v: %s", list[i].kind, list[i].path, r.status, r.err, r.body)
		}
	}
	return res, nil
}
