// Command perfbench is the repository benchmark. It drives the system
// through its public entry points on four workloads, checks every output,
// and prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). See README.md for the workloads, the metrics and
// the layer → end-to-end map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// bench is one workload's set-up, timed loop and teardown.
type bench interface {
	// setups is how many times a run calls setup; setup_s is the median
	// time of one call.
	setups() int
	// setup builds the workload's inputs, or one more set of them.
	setup(tr *tracer) error
	// property checks the workload's defining property on the inputs and
	// describes it; an error aborts the run.
	property() (string, error)
	// measure runs the timed loop for about seconds and checks outputs.
	measure(seconds float64, tr *tracer) (*phase, error)
	// close releases the inputs.
	close()
	// sizes states the input sizes for the report.
	sizes() any
	// aliases restates the median and p99 latency and the throughput
	// under the workload's own metric names.
	aliases(p50, p99, rate float64, n int) metricSet
}

// runChecker is a bench with a property that only the whole measured run
// shows; an error aborts the run.
type runChecker interface {
	checkRun() error
}

// phase is the outcome of one timed loop.
type phase struct {
	attempted, failed int64
	problems          []string // failed output checks, for the log
	// latMS holds one latency per unit of work in milliseconds: a pass, a
	// request's round trip, or a window's lag.
	latMS []float64
	// done is the work completed (node-windows, correct responses or
	// samples delivered) in elapsed.
	done    float64
	elapsed time.Duration
	// cost is the mean cost of one unit of work in seconds; the traced
	// run compares it with the untraced half to report tracing overhead.
	cost float64
	// layer holds per-layer counters and timings.
	layer metricSet
}

// add folds o's samples, work and checks into p.
func (p *phase) add(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.problems = append(p.problems, o.problems...)
	p.latMS = append(p.latMS, o.latMS...)
	p.done += o.done
	p.elapsed += o.elapsed
}

// endToEnd reduces p to the latency and throughput metrics, and the
// workload's own names for them.
func (p *phase) endToEnd(b bench) (e2e, aliases metricSet) {
	n := len(p.latMS)
	p50, p90, p99 := quantile(p.latMS, 0.5), quantile(p.latMS, 0.9), quantile(p.latMS, 0.99)
	rate := p.done / p.elapsed.Seconds()
	e2e = metricSet{}
	e2e.set("latency_p50_ms", p50, "ms", n)
	e2e.set("latency_p90_ms", p90, "ms", n)
	e2e.set("throughput_per_s", rate, "1/s", n)
	return e2e, b.aliases(p50, p99, rate, n)
}

// The untraced loop runs as measureSlices slices of equal length. A slice
// during which the hypervisor gave more than stealLimit of the machine's
// busy CPU time to other guests measured the host, not the program, and
// is left out of the end-to-end metrics: on a shared 2-vCPU host, runs
// with a steal above 0.05 read up to 35 % slower than their neighbours,
// while runs below it hardly ever did. At least half the slices are kept,
// the least disturbed ones, and every slice's output checks count.
const (
	measureSlices = 4
	stealLimit    = 0.05
)

// measureSliced runs the untraced loop and returns every slice's checks
// in all and the kept slices' measurements in kept.
func measureSliced(b bench, seconds float64, out io.Writer) (all, kept *phase, err error) {
	type slice struct {
		ph    *phase
		steal float64
	}
	slices := make([]slice, measureSlices)
	all = &phase{}
	for i := range slices {
		c0 := readCPUTicks()
		ph, err := b.measure(seconds/measureSlices, nil)
		if err != nil {
			return nil, nil, err
		}
		slices[i] = slice{ph, stealShare(c0, readCPUTicks())}
		all.add(ph)
	}
	sort.SliceStable(slices, func(i, j int) bool { return slices[i].steal < slices[j].steal })
	kept = &phase{}
	var steals []string
	n := 0
	for i, s := range slices {
		steals = append(steals, fmt.Sprintf("%.3f", s.steal))
		if i < measureSlices/2 || s.steal <= stealLimit {
			kept.add(s.ph)
			n++
		}
	}
	fmt.Fprintf(out, "slices steal %s (ascending); %d of %d kept, limit %.2f\n",
		strings.Join(steals, " "), n, measureSlices, stealLimit)
	return all, kept, nil
}

// workload names a bench and records why it exists.
type workload struct {
	name string
	why  string
	make func(o options) bench
}

var workloads = []workload{
	{"paper-pipeline", "the whole reproduction: simulate, archive, re-open, nine analyses, every report", newPipelineBench},
	{"serve-dashboard", "repeated dashboard panels on the newest day: cache hits, pre-aggregates, JSON and HTTP", newDashboardBench},
	{"serve-sweep", "archive exploration touching each partition about once: store decode and scans", newSweepBench},
	{"live-replay", "open-loop live feed through the wire codec into the streaming pipeline", newLiveBench},
}

// options configures one run.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	tiny    bool   // small inputs, for tests and smoke runs
	work    string // scratch directory for archives
}

// endToEnd lists the contract metrics of an untraced run, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_mem_mb", "MiB"},
}

// result is one workload's report.
type result struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Sizes     any       `json:"sizes"`
	Host      hostInfo  `json:"host"`
	Property  string    `json:"property"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	Metrics   metricSet `json:"metrics"`
	Aliases   metricSet `json:"aliases"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	size := fs.String("size", "full", "input size: full, or tiny for smoke runs")
	traceOut := fs.String("trace-out", "", "span log of a traced run (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if *size != "full" && *size != "tiny" {
		fmt.Fprintf(stderr, "perfbench: --size must be full or tiny, got %q\n", *size)
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, tiny: *size == "tiny", work: work}
	host := collectHost()
	var results []*result
	for _, w := range selected {
		res, tr, err := runWorkload(w, o, host, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if tr != nil {
			path := *traceOut
			if path == "" || len(selected) > 1 {
				path = filepath.Join(base, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
			}
			if err := tr.write(path, res); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace %s\n", path)
		}
		results = append(results, res)
	}
	final := summarize(results)
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload sets up, checks the defining property, measures and
// reports one workload. It prints the human-readable lines of the run.
func runWorkload(w workload, o options, host hostInfo, out io.Writer) (*result, *tracer, error) {
	runtime.GC()
	debug.FreeOSMemory()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t size=%s\n",
		w.name, o.seed, o.seconds, o.traced, map[bool]string{false: "full", true: "tiny"}[o.tiny])
	fmt.Fprintf(out, "why %s\n", w.why)
	hostJSON, _ := json.Marshal(host) // plain struct of strings and ints
	fmt.Fprintf(out, "host %s\n", hostJSON)

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	probe := startRuntimeProbe(20 * time.Millisecond)
	defer probe.stopProbe()
	b := w.make(o)
	defer b.close()

	var setups []float64
	for i := 0; i < b.setups(); i++ {
		t0 := time.Now()
		if err := b.setup(tr); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		probe.sample()
	}
	prop, err := b.property()
	if err != nil {
		return nil, nil, fmt.Errorf("defining property: %w", err)
	}
	fmt.Fprintf(out, "property %s\n", prop)

	// Peak memory covers the measured loops: drop set-up garbage and
	// return it to the system first.
	runtime.GC()
	debug.FreeOSMemory()
	probe.reset()
	gc0, cpu0 := readGC(), readCPUTicks()
	var ph, kept *phase
	var overhead float64
	if o.traced {
		// Untraced half first, then the traced half: the ratio of their
		// per-operation costs is the tracing overhead.
		plain, err := b.measure(o.seconds/2, nil)
		if err != nil {
			return nil, nil, err
		}
		if ph, err = b.measure(o.seconds/2, tr); err != nil {
			return nil, nil, err
		}
		if plain.cost > 0 {
			overhead = ph.cost/plain.cost - 1
		}
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		ph.problems = append(plain.problems, ph.problems...)
	} else if ph, kept, err = measureSliced(b, o.seconds, out); err != nil {
		return nil, nil, err
	}
	if c, ok := b.(runChecker); ok {
		if err := c.checkRun(); err != nil {
			return nil, nil, err
		}
	}
	gc1, cpu1 := readGC(), readCPUTicks()
	probe.sample()
	steal := stealShare(cpu0, cpu1)
	fmt.Fprintf(out, "steal %.3f of the machine's busy CPU time during the measured loop went to other guests\n", steal)

	res := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Sizes: b.sizes(), Host: host, Property: prop,
		Attempted: ph.attempted, Failed: ph.failed, Problems: ph.problems,
		Correct: ph.failed == 0 && len(ph.problems) == 0 && ph.attempted > 0,
		Metrics: metricSet{},
	}
	if o.traced {
		layer := metricSet{}
		for _, m := range perLayer {
			layer.set(m.name, 0, m.unit, 0)
		}
		for k, v := range ph.layer {
			layer[k] = v
		}
		setRuntimeMetrics(layer, gc0, gc1)
		layer.set("bench.trace_overhead_ratio", overhead, "ratio", 2)
		layer.set("bench.host_steal_ratio", steal, "ratio", 1)
		layer.set("failed_ratio", ratio(ph.failed, ph.attempted), "ratio", int(ph.attempted))
		res.Metrics = layer
	} else {
		res.Metrics.set("setup_s", quantile(setups, 0.5), "s", len(setups))
		var e2e metricSet
		e2e, res.Aliases = kept.endToEnd(b)
		for k, v := range e2e {
			res.Metrics[k] = v
		}
		res.Metrics.set("peak_mem_mb", probe.peakMiB(), "MiB", 1)
	}
	sizesJSON, _ := json.Marshal(res.Sizes) // plain struct of numbers
	fmt.Fprintf(out, "sizes %s\n", sizesJSON)
	printMetrics(out, res, o.traced)
	return res, tr, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(out io.Writer, res *result, traced bool) {
	names := make([]string, 0, len(res.Metrics))
	if traced {
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
	} else {
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
	}
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(out, "metric %-34s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, m.N)
	}
	if !traced {
		keys := make([]string, 0, len(res.Aliases))
		for k := range res.Aliases {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := res.Aliases[k]
			fmt.Fprintf(out, "metric %-34s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, m.N)
		}
		fmt.Fprintf(out, "metric %-34s %14.6g %-8s n=%d\n", "failed_ratio",
			ratio(res.Failed, res.Attempted), "ratio", res.Attempted)
	}
	for i, p := range res.Problems {
		if i == 20 {
			fmt.Fprintf(out, "check FAIL ... %d more\n", len(res.Problems)-20)
			break
		}
		fmt.Fprintf(out, "check FAIL %s\n", p)
	}
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(out, "checks %s: %d attempted, %d failed\n", status, res.Attempted, res.Failed)
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the workload results into the contract line. A single
// workload reports its metrics by name; several prefix each with the
// workload name.
func summarize(results []*result) contractLine {
	out := contractLine{Correct: true, Metrics: map[string]metricOutput{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "." + k
			}
			out.Metrics[k] = metricOutput{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}
