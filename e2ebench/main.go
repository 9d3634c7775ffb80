// Command e2ebench is the end-to-end restoration benchmark: one workload per
// run, measured from a single goroutine for a fixed wall-clock
// window, with every output checked for correctness.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	e2ebench --workload provision|storm|live-udp --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with every layer
// running bare. With --trace 1 it measures per-layer metrics instead, by
// wrapping the seams the program exposes (bcp.Runtime, bcp.Transport, the
// live transport's PostFunc and a TraceSink) and by replaying the
// workload's own inputs through inner layers' public APIs. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every preceding line is a human-readable report: the environment stamp,
// each workload-specific metric by name with its unit and sample count, and
// any failed correctness check. The exit code is non-zero when a check
// fails. See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload runs one named workload for the given measuring window and
// returns its report.
type workload func(seed int64, window time.Duration, traced bool) *report

var workloads = map[string]workload{
	"provision": runProvision,
	"storm":     runStorm,
	"live-udp":  runLive,
}

func main() {
	name := flag.String("workload", "", "workload: provision, storm or live-udp")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measuring window in seconds")
	traced := flag.Int("trace", 0, "1 measures per-layer metrics through the traced seams")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload provision|storm|live-udp, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	rep := run(*seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	rep.env["seed"] = *seed
	rep.env["workload"] = *name
	rep.env["traced"] = *traced == 1
	rep.print(os.Stdout, *traced == 1)
	if !rep.correct() {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	checks            []string // failed correctness checks

	e2e    map[string]metric // gated end-to-end metrics (--trace 0)
	layers map[string]metric // per-layer metrics (--trace 1)
	detail []string          // workload-specific metrics, human-readable
	env    map[string]any
}

func newReport() *report {
	r := &report{
		e2e:    make(map[string]metric),
		layers: make(map[string]metric),
		env:    envStamp(),
	}
	for _, name := range layerMetrics {
		r.layers[name.name] = metric{Unit: name.unit}
	}
	return r
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.checks) == 0 }

// note adds one workload-specific metric line: name = value unit, with an
// optional qualifier such as the sample count.
func (r *report) note(name string, value float64, unit, qual string) {
	line := fmt.Sprintf("%-28s %14.6g %-6s", name, value, unit)
	if qual != "" {
		line += " " + qual
	}
	r.detail = append(r.detail, line)
}

// timing adds a p50/p95 pair to the detail lines.
func (r *report) timing(name string, s samples, unit string, scale time.Duration) {
	n := fmt.Sprintf("n=%d", s.n())
	r.note(name+".p50", s.pct(50, scale), unit, n)
	r.note(name+".p95", s.pct(95, scale), unit, n)
}

// layer sets one per-layer metric; the name must be listed in layerMetrics
// or stormLayerMetrics.
func (r *report) layer(name string, v float64) {
	m, ok := r.layers[name]
	if !ok {
		for _, sm := range stormLayerMetrics {
			if sm.name == name {
				m, ok = metric{Unit: sm.unit}, true
			}
		}
	}
	if !ok {
		panic("e2ebench: unlisted layer metric " + name)
	}
	m.Value = v
	r.layers[name] = m
}

func (r *report) print(out *os.File, traced bool) {
	w := bufio.NewWriter(out)
	env, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", env)
	for _, line := range r.detail {
		fmt.Fprintln(w, line)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	metrics := r.e2e
	if traced {
		metrics = r.layers
		for _, m := range append(layerMetrics, stormLayerMetrics...) {
			if v, ok := r.layers[m.name]; ok {
				fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, v.Value, m.unit)
			}
		}
	} else {
		names := make([]string, 0, len(r.e2e))
		for name := range r.e2e {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", name, r.e2e[name].Value, r.e2e[name].Unit)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
	w.Flush()
}

// envStamp records what the numbers were measured on.
func envStamp() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux); elsewhere it
// falls back to the architecture.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// measure calls step until the window has elapsed or step reports an error.
func measure(window time.Duration, step func() error) error {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
