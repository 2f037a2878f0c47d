// Command e2ebench is the repository's end-to-end benchmark: in-process
// servemodel nodes on loopback listeners, driven by closed-loop clients
// over one of three seeded workloads, every answer checked.
//
//	e2ebench --workload search_cold|mix_warm|fabric_sharded --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced and prints the per-layer metrics.
// Human-readable lines start with "#"; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit status is 0 only
// when every answer checked out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/prof"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "search_cold, mix_warm or fabric_sharded")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	o.trace = trace == 1

	m := machineInfo(o)
	fmt.Fprintf(stdout, "# machine: %s\n", m)
	rep, err := execute(o, wl, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	for i, f := range rep.failures {
		if i == 10 {
			fmt.Fprintf(stdout, "# FAILED: ... and %d more\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintf(stdout, "# FAILED: %v\n", f)
	}
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := rep.metrics[k]
		fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", k, v.Value, v.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome. failed counts requests that failed or whose
// answer did not check out; failures also lists failed self-checks.
type report struct {
	attempted, failed int
	failures          []error
	metrics           map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{v, unit}
}

func (r *report) fail(err error) { r.failures = append(r.failures, err) }

// machineInfo is the machine and build a result was measured on.
func machineInfo(o options) string {
	b := prof.Build()
	rev := b.Revision
	if b.Modified {
		rev += "-dirty"
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s git=%s workload=%s seed=%d seconds=%d trace=%t time=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev,
		o.workload, o.seed, o.seconds, o.trace, time.Now().UTC().Format(time.RFC3339))
}

// cpuModel reads the CPU model name on Linux, or reports the architecture.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}
