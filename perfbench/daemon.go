package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// clockTicks is Linux's USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clockTicks = 100

// daemon is one schedd process on its own fresh store directory.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:<port>
	storeDir string
	ready    time.Duration // exec to listening, store open included
	drained  chan struct{} // closed once the stdout reader has seen EOF
	logFile  *os.File
	peakRSS  int64 // bytes, set by stop
}

// startDaemon execs schedd on a fresh store directory under dir and waits
// for its "listening on" line, which it prints only after the store is open
// and sessions are restored.
func startDaemon(bin, dir string) (*daemon, error) {
	d := &daemon{storeDir: filepath.Join(dir, "store"), drained: make(chan struct{})}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "schedd.log"))
	if err != nil {
		return nil, err
	}
	d.logFile = logFile
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", d.storeDir)
	d.cmd.Stderr = logFile
	// The daemon dies with perfbench, even if perfbench is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting schedd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			// "schedd listening on 127.0.0.1:PORT (batch ...)"
			if rest, ok := strings.CutPrefix(sc.Text(), "schedd listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("schedd exited before listening (see %s)", logFile.Name())
		}
		d.ready = time.Since(t0)
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("schedd did not listen within 30s")
	}
	return d, nil
}

// stop kills the daemon, reaps it and records its peak resident set.
func (d *daemon) stop() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		<-d.drained
		d.cmd.Wait()
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.peakRSS = ru.Maxrss << 10 // Linux reports KiB
		}
	}
	d.logFile.Close()
}

// cpuTime returns the daemon's user+system CPU so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// batchWait returns the mean schedd_stage_seconds{stage="batch_assembly"}
// over the daemon's life, from its /metrics exposition.
func (d *daemon) batchWait(client *http.Client) (time.Duration, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("parsing /metrics: %w", err)
	}
	lab := obs.L("stage", "batch_assembly")
	sum, ok1 := obs.SampleValue(fams, "schedd_stage_seconds_sum", lab)
	n, ok2 := obs.SampleValue(fams, "schedd_stage_seconds_count", lab)
	if !ok1 || !ok2 || n == 0 {
		return 0, fmt.Errorf("no batch_assembly samples in /metrics")
	}
	return time.Duration(sum / n * float64(time.Second)), nil
}
