package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func tinyOptions(t *testing.T) options {
	return options{seed: 3, seconds: 0.3, tiny: true, work: t.TempDir()}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and requires every output check to pass.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			b := w.make(tinyOptions(t))
			defer b.close()
			tr := newTracer()
			if err := b.setup(tr); err != nil {
				t.Fatal(err)
			}
			if _, err := b.property(); err != nil {
				t.Fatal(err)
			}
			for _, traced := range []*tracer{nil, tr} {
				ph, err := b.measure(0.3, traced)
				if err != nil {
					t.Fatal(err)
				}
				if ph.attempted == 0 || ph.failed != 0 || len(ph.problems) != 0 {
					t.Fatalf("attempted %d failed %d: %v", ph.attempted, ph.failed, ph.problems)
				}
				e2e, _ := ph.endToEnd(b)
				for _, m := range endToEnd[1:4] {
					if v := e2e[m.name].Value; !(v > 0) {
						t.Errorf("%s = %v, want > 0", m.name, v)
					}
				}
			}
		})
	}
}

// TestServeCheckCatchesCorruptReference flips one byte of one reference
// body: the served response no longer matches and the run fails.
func TestServeCheckCatchesCorruptReference(t *testing.T) {
	b := newDashboardBench(tinyOptions(t)).(*serveBench)
	defer b.close()
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	ref := b.refs[b.seq[0]]
	ref[len(ref)/2] ^= 1
	ph, err := b.measure(0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed == 0 || !strings.Contains(strings.Join(ph.problems, "\n"), "differs from the reference") {
		t.Fatalf("corrupted reference went unnoticed: failed %d, problems %v", ph.failed, ph.problems)
	}
}

// TestLiveOverflowFails forces the shard queues to overflow: dropped
// samples must fail the run.
func TestLiveOverflowFails(t *testing.T) {
	b := newLiveBench(tinyOptions(t)).(*liveBench)
	defer b.close()
	b.sz.QueueDepth = 1
	b.unpaced = true
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	ph, err := b.measure(0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed == 0 || !strings.Contains(strings.Join(ph.problems, "\n"), "lost") {
		t.Fatalf("overflow went unnoticed: failed %d of %d, problems %v", ph.failed, ph.attempted, ph.problems)
	}
}

// TestLiveRateAboveCapacityIsAnError requires a run whose fixed rate the
// pipeline cannot sustain to be refused, not measured.
func TestLiveRateAboveCapacityIsAnError(t *testing.T) {
	b := newLiveBench(tinyOptions(t)).(*liveBench)
	defer b.close()
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	b.sz.RateWindowsPerS = 1e9
	if _, err := b.property(); err == nil {
		t.Fatal("rate above capacity accepted")
	}
}

// TestLiveQueueFillJudgedOverTheRun requires the queue-fill property to
// follow the median pass of the whole run: one stalled pass passes, a
// majority of nearly full passes is an error.
func TestLiveQueueFillJudgedOverTheRun(t *testing.T) {
	b := newLiveBench(tinyOptions(t)).(*liveBench)
	b.fills = []float64{0.06, 0.9, 0.06, 0.06}
	if err := b.checkRun(); err != nil {
		t.Fatalf("one stalled pass refused the run: %v", err)
	}
	b.fills = append(b.fills, 0.9, 0.9, 0.9)
	if err := b.checkRun(); err == nil {
		t.Fatal("a run whose median pass nearly filled the queues was accepted")
	}
}

// TestContractLine checks the last output line of an untraced and a
// traced run: exactly the end-to-end, respectively per-layer, metrics.
func TestContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "live-replay", "--size", "tiny", "--seed", "5",
			"--seconds", "0.4", "--trace", trace, "--trace-out", t.TempDir() + "/trace.json"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   bool                       `json:"correct"`
			Attempted int64                      `json:"attempted"`
			Failed    int64                      `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
			t.Fatalf("trace %s: %+v", trace, got)
		}
		var want []string
		if trace == "0" {
			for _, m := range endToEnd {
				want = append(want, m.name)
			}
		} else {
			for _, m := range perLayer {
				want = append(want, m.name)
			}
		}
		var names []string
		for k := range got.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		sort.Strings(want)
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Fatalf("trace %s: metrics %v, want %v", trace, names, want)
		}
	}
}

func TestBitEqual(t *testing.T) {
	type rec struct {
		A []float64
		b float64
	}
	nan := math.NaN()
	if !bitEqual(rec{A: []float64{1, nan}, b: 2}, rec{A: []float64{1, nan}, b: 2}) {
		t.Error("NaN must equal NaN")
	}
	if bitEqual(rec{A: []float64{1}}, rec{A: []float64{math.Nextafter(1, 2)}}) {
		t.Error("last-bit difference must show")
	}
	if bitEqual(rec{b: 0}, rec{b: math.Copysign(0, -1)}) {
		t.Error("-0 must differ from +0")
	}
	if bitEqual([]float64(nil), []float64{}) {
		t.Error("nil and empty slices differ")
	}
}

func TestCoverage(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 60}}
	if got := coverage(parent, kids); got != 30+10+10 {
		t.Fatalf("coverage = %d, want 50", got)
	}
}

// TestBenchmarkDefinition requires BENCHMARK.json to list exactly the
// metrics a run prints, with the same units, and only workloads that
// exist.
func TestBenchmarkDefinition(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDef struct{ Name, Unit string }
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		units := map[string]string{}
		for _, m := range want {
			units[m.name] = m.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json is not printed with that unit", kind, m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range def.Workloads {
		if !known[w.Name] {
			t.Errorf("workload %q in BENCHMARK.json does not exist", w.Name)
		}
	}
}
