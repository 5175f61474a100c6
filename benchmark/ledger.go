package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/coverage"
	"runtime/debug"
	"strconv"
	"strings"
)

// The ledger attributes cost to the repo's packages from outside, two ways:
//
//   - statements executed per package, exact and repeatable, from a second
//     binary built with `go build -cover -covermode=atomic
//     -coverpkg=tcpfailover/...` that runs the workload's fixed window with
//     its counters cleared after set-up;
//   - CPU time share per package (including the Go runtime's memmove,
//     memclr and GC), from a runtime/pprof profile of the untraced phase
//     bucketed with `go tool pprof -top`.

// buildDir is where run.sh put this binary, <checkout>/.bench_build:
// everything a traced run writes goes there, and the benchmark's sources,
// which the coverage build needs, are beside it in <checkout>/benchmark.
func buildDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Dir(exe), nil
}

// childReport is what the coverage child prints.
type childReport struct {
	Segments int64 `json:"segments"`
	Events   int64 `json:"events"`
	Payload  int64 `json:"payload"`
}

// ledgerChild is the coverage binary's entry point: set up, clear the
// counters, run the (shrunk) fixed windows, write the counters to dir.
func ledgerChild(name string, t tier, seed int64, dir string) error {
	w, err := newWorkload(name, smallTier(t))
	if err != nil {
		return err
	}
	// A collection empties netbuf's sync.Pool, and refilling it executes
	// statements: with the collector on, the counts would depend on when it
	// happened to run. The shrunk windows fit in memory without it.
	debug.SetGCPercent(-1)
	// Counters cover the measured windows only: cleared after every set-up
	// and written before the next (one counter file per window; covdata
	// sums them).
	var rep childReport
	for i := 0; i < w.pooled(); i++ {
		if err := w.setup(seed, i, runMode{}, nil); err != nil {
			return err
		}
		if err := coverage.ClearCounters(); err != nil {
			return fmt.Errorf("clear counters (is this the -cover binary?): %w", err)
		}
		for done := false; !done; {
			if done, err = w.slice(); err != nil {
				return err
			}
		}
		if err := coverage.WriteCountersDir(dir); err != nil {
			return err
		}
		res, err := w.window()
		if err != nil {
			return err
		}
		rep.Segments += res.segments
		rep.Events += res.events
		rep.Payload += res.payload
		w.teardown()
	}
	if err := coverage.WriteMetaDir(dir); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// coverageLedger builds the coverage binary in buildDir if needed, runs the
// child and returns statements executed per package together with the
// child's work.
func coverageLedger(buildDir, name string, seed int64, quick bool) (map[string]float64, childReport, error) {
	var rep childReport
	bin := filepath.Join(buildDir, "bench-cover")
	build := exec.Command("go", "build", "-cover", "-covermode=atomic", "-coverpkg=tcpfailover/...", "-o", bin, ".")
	build.Dir = filepath.Join(buildDir, "..", "benchmark")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, rep, fmt.Errorf("build coverage binary: %w\n%s", err, out)
	}
	dir, err := os.MkdirTemp(buildDir, "cov-"+name+"-")
	if err != nil {
		return nil, rep, err
	}
	defer os.RemoveAll(dir)
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-ledger-child", dir}
	if quick {
		args = append(args, "-quick")
	}
	child := exec.Command(bin, args...)
	// The child writes its counters itself; an unset GOCOVERDIR only costs
	// a warning at exit.
	child.Stderr = io.Discard
	out, err := child.Output()
	if err != nil {
		return nil, rep, fmt.Errorf("coverage child: %w", err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, rep, fmt.Errorf("coverage child output %q: %w", out, err)
	}
	txt := filepath.Join(dir, "cov.txt")
	if out, err := exec.Command("go", "tool", "covdata", "textfmt", "-i="+dir, "-o="+txt).CombinedOutput(); err != nil {
		return nil, rep, fmt.Errorf("covdata textfmt: %w\n%s", err, out)
	}
	f, err := os.Open(txt)
	if err != nil {
		return nil, rep, err
	}
	defer f.Close()
	stmts, err := parseCovText(f)
	return stmts, rep, err
}

// packageOf maps a file path or function name inside the module to the
// ledger's package label: "tcpfailover/internal/tcp/conn.go" and
// "tcpfailover/internal/tcp.(*Conn).trySend" are both "tcp"; the facade is
// "facade"; the benchmark's own code is "bench".
func packageOf(s string) string {
	const internal = "tcpfailover/internal/"
	switch {
	case strings.HasPrefix(s, internal):
		rest := s[len(internal):]
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(s, "tcpfailover/benchmark"), strings.HasPrefix(s, "main."):
		return "bench"
	case strings.HasPrefix(s, "tcpfailover/"), strings.HasPrefix(s, "tcpfailover."):
		return "facade"
	case strings.HasPrefix(s, "runtime.") || strings.HasPrefix(s, "runtime/") || strings.HasPrefix(s, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// parseCovText sums statements executed per package from `go tool covdata
// textfmt` output: one "file:l.c,l.c statements count" line per block.
func parseCovText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "mode:") {
			continue
		}
		colon := strings.LastIndexByte(text, ':')
		fields := strings.Fields(text[colon+1:])
		if colon < 0 || len(fields) != 3 {
			return nil, fmt.Errorf("coverage line %d: %q", line, text)
		}
		n, err1 := strconv.ParseFloat(fields[1], 64)
		c, err2 := strconv.ParseFloat(fields[2], 64)
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("coverage line %d: %w", line, err)
		}
		out[packageOf(text[:colon])] += n * c
	}
	return out, sc.Err()
}

// parsePprofTop buckets the flat column of `go tool pprof -top` output by
// package and returns seconds per bucket.
func parsePprofTop(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		secs, err := parsePprofDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		out[packageOf(strings.Join(f[5:], " "))] += secs
	}
	if !inTable {
		return nil, errors.New("pprof output has no flat/flat% table")
	}
	return out, sc.Err()
}

// parsePprofDuration reads pprof's "1.20s", "340ms", "15us", "0" values.
func parsePprofDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"mins", 60}, {"hrs", 3600}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// cpuShares runs `go tool pprof -top` over a CPU profile of this binary and
// returns each package's share of the samples outside the benchmark's own
// code (reference kernel, clients, harness).
func cpuShares(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", exe, profile)
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	secs, err := parsePprofTop(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	var total float64
	for pkg, s := range secs {
		if pkg != "bench" {
			total += s
		}
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for pkg, s := range secs {
		if pkg != "bench" {
			shares[pkg] = 100 * s / total
		}
	}
	return shares, nil
}
