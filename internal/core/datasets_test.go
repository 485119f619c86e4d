package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

func simConfigForNodeDataset() sim.Config {
	return sim.Config{
		Seed: 2, Nodes: 12, StartTime: 1_577_836_800,
		DurationSec: 1200, StepSec: 10, SamplesPerWindow: 2,
		Jobs: 8, FailureRateScale: 1,
	}
}

func simNew(cfg sim.Config) (*sim.Sim, error) { return sim.New(cfg) }

func TestWriteReadDatasets(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	// Cluster series round trip.
	series, err := ReadClusterDataset(dir, d.StepSec)
	if err != nil {
		t.Fatal(err)
	}
	power, ok := series["sum_inp"]
	if !ok {
		t.Fatal("sum_inp column missing")
	}
	if power.Len() < d.ClusterPower.Len() {
		t.Fatalf("restored %d windows, want >= %d", power.Len(), d.ClusterPower.Len())
	}
	for i := 0; i < d.ClusterPower.Len(); i++ {
		want := d.ClusterPower.Vals[i]
		got := power.At(d.ClusterPower.TimeAt(i))
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("window %d: %v != %v", i, got, want)
		}
	}
	for _, name := range []string{"pue", "mtwst", "mtwrt", "tower_tons", "gpu_core_temp_max"} {
		if _, ok := series[name]; !ok {
			t.Errorf("column %q missing from cluster dataset", name)
		}
	}
	// Failure log round trip.
	evs, err := ReadFailureDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(d.Failures) {
		t.Fatalf("restored %d failures, want %d", len(evs), len(d.Failures))
	}
	for i := range evs {
		a, b := evs[i], d.Failures[i]
		if a.Time != b.Time || a.Node != b.Node || a.Slot != b.Slot ||
			a.Type != b.Type || a.JobID != b.JobID {
			t.Fatalf("failure %d mismatch: %+v vs %+v", i, a, b)
		}
		if a.HasTemp() != b.HasTemp() {
			t.Fatalf("failure %d temp presence mismatch", i)
		}
	}
	// Analyses run identically on restored failures.
	orig := Table4Composition(d.Failures, d.Nodes)
	restored := Table4Composition(evs, d.Nodes)
	if len(orig) != len(restored) {
		t.Fatal("composition differs after round trip")
	}
	for i := range orig {
		if orig[i] != restored[i] {
			t.Fatalf("composition row %d differs", i)
		}
	}
}

func TestReadDatasetsErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadClusterDataset(dir, 10); err == nil {
		t.Error("empty dir read succeeded")
	}
	if _, err := ReadFailureDataset(dir); err == nil {
		t.Error("missing failure dataset read succeeded")
	}
}

func TestNodeDatasetWriter(t *testing.T) {
	dir := t.TempDir()
	cfg := simConfigForNodeDataset()
	s, err := simNew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	byNode, err := ReadNodeDataset(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(byNode) != cfg.Nodes {
		t.Fatalf("restored %d nodes, want %d", len(byNode), cfg.Nodes)
	}
	wantWindows := int(cfg.DurationSec / cfg.StepSec)
	for n, ws := range byNode {
		if len(ws) != wantWindows {
			t.Fatalf("node %d: %d windows, want %d", n, len(ws), wantWindows)
		}
		for _, st := range ws {
			if st.Min > st.Mean || st.Mean > st.Max || st.Count <= 0 {
				t.Fatalf("node %d window invariant broken: %+v", n, st)
			}
		}
	}
	if _, err := ReadNodeDataset(dir, 7); err == nil {
		t.Error("missing day read succeeded")
	}
}

func TestJobSeriesDatasetRoundTrip(t *testing.T) {
	d := testData(t)
	dir := t.TempDir()
	if err := WriteJobSeriesDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	views, err := ReadJobSeriesDataset(dir, d.StepSec)
	if err != nil {
		t.Fatal(err)
	}
	// Every job with observations must restore with identical values.
	restored := 0
	for i := range d.Jobs {
		js := &d.Jobs[i]
		a := &d.Allocations[js.AllocIdx]
		clean := js.SumPower.Clean()
		if len(clean) == 0 {
			continue
		}
		v, ok := views[a.Job.ID]
		if !ok {
			t.Fatalf("job %d missing from restore", a.Job.ID)
		}
		restored++
		for w := 0; w < js.SumPower.Len(); w++ {
			orig := js.SumPower.Vals[w]
			if math.IsNaN(orig) {
				continue
			}
			got := v.SumPower.At(js.SumPower.TimeAt(w))
			if got != orig { //lint:allow floatcompare archive round-trip is lossless by design
				t.Fatalf("job %d window %d: %v != %v", a.Job.ID, w, got, orig)
			}
		}
	}
	if restored == 0 {
		t.Fatal("no jobs restored")
	}
	// Restored series feed the same edge detection.
	for allocID, v := range views {
		_ = allocID
		_ = DetectEdgesThreshold(v.SumPower, 1e5)
	}
	if _, err := ReadJobSeriesDataset(dir, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := ReadJobSeriesDataset(t.TempDir(), 10); err == nil {
		t.Error("missing dataset read succeeded")
	}
}

// TestNodeDatasetWriterRollupCompanion pins the collector-side half of the
// pre-aggregate parity contract: the persisted companion partition is
// bit-identical to re-reducing the archived day table's rows in file order.
func TestNodeDatasetWriterRollupCompanion(t *testing.T) {
	dir := t.TempDir()
	cfg := simConfigForNodeDataset()
	s, err := simNew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	base, err := store.NewDataset(dir, DatasetNodePower)
	if err != nil {
		t.Fatal(err)
	}
	rds, err := store.NewDataset(dir, source.RollupDatasetName(DatasetNodePower))
	if err != nil {
		t.Fatal(err)
	}
	baseDays, err := base.Days()
	if err != nil {
		t.Fatal(err)
	}
	rollDays, err := rds.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseDays) == 0 || len(baseDays) != len(rollDays) {
		t.Fatalf("companion covers days %v, base has %v", rollDays, baseDays)
	}
	tcfg, err := topology.PresetScaled(cfg.Site, cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, day := range baseDays {
		if day != rollDays[i] {
			t.Fatalf("day %d: companion partition %d != base %d", i, rollDays[i], day)
		}
		tab, err := base.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		ts, node := tab.Col("timestamp").Ints, tab.Col("node").Ints
		red := source.NewRollupReducer(floor, nodeRollupCols)
		vals := make([]float64, len(nodeRollupCols))
		for r := range ts {
			for c, name := range nodeRollupCols {
				col := tab.Col(name)
				if col.IsInt() {
					vals[c] = float64(col.Ints[r])
				} else {
					vals[c] = col.Floats[r]
				}
			}
			if err := red.Add(ts[r], node[r], vals); err != nil {
				t.Fatal(err)
			}
		}
		want := red.Table()
		got, err := rds.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cols) != len(want.Cols) {
			t.Fatalf("day %d: %d companion columns, want %d", day, len(got.Cols), len(want.Cols))
		}
		for _, wc := range want.Cols {
			gc := got.Col(wc.Name)
			if gc == nil {
				t.Fatalf("day %d: companion lost column %q", day, wc.Name)
			}
			if len(gc.Ints) != len(wc.Ints) || len(gc.Floats) != len(wc.Floats) {
				t.Fatalf("day %d column %q: length mismatch", day, wc.Name)
			}
			for r := range wc.Ints {
				if gc.Ints[r] != wc.Ints[r] {
					t.Fatalf("day %d column %q row %d: %d != %d", day, wc.Name, r, gc.Ints[r], wc.Ints[r])
				}
			}
			for r := range wc.Floats {
				if math.Float64bits(gc.Floats[r]) != math.Float64bits(wc.Floats[r]) {
					t.Fatalf("day %d column %q row %d: %v != %v", day, wc.Name, r, gc.Floats[r], wc.Floats[r])
				}
			}
		}
	}
}

// TestNodeDatasetWriterReusesBuffersAcrossDays drives the writer over three
// days: every day partition and its companion must hold exactly that day's
// rows (the buffers are truncated for reuse only after the day table and
// its rollup were both written), the second day must fill the first day's
// arrays, and Close must release them.
func TestNodeDatasetWriterReusesBuffersAcrossDays(t *testing.T) {
	const nodes, step, start = 20, int64(600), int64(1_577_836_800)
	dir := t.TempDir()
	w, err := NewNodeDatasetWriter(dir, nodes, "")
	if err != nil {
		t.Fatal(err)
	}
	stat := func(tm int64, n int) tsagg.WindowStat {
		x := float64(tm%86400)/10 + float64(n)*7.5
		return tsagg.WindowStat{T: tm, Count: 60, Min: x - 3, Max: x + 4, Mean: x, Std: 1.25}
	}
	var day0 *int64
	for tm := start; tm < start+3*86400; tm += step {
		snap := &sim.Snapshot{T: tm, NodeStat: make([]tsagg.WindowStat, nodes)}
		for n := range snap.NodeStat {
			snap.NodeStat[n] = stat(tm, n)
		}
		w.Observe(snap)
		switch {
		case tm < start+86400:
			day0 = &w.ts[0] // the day-0 array as it stands at the flush
		case tm == start+86400:
			if &w.ts[0] != day0 {
				t.Error("day 1 did not reuse the day-0 row buffers")
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.ts != nil || w.std != nil {
		t.Error("Close kept the row buffers")
	}
	tcfg, err := topology.PresetScaled("", nodes)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	rds, err := store.NewDataset(dir, source.RollupDatasetName(DatasetNodePower))
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		byNode, err := ReadNodeDataset(dir, day)
		if err != nil {
			t.Fatal(err)
		}
		red := source.NewRollupReducer(floor, nodeRollupCols)
		for tm := start + int64(day)*86400; tm < start+int64(day+1)*86400; tm += step {
			for n := 0; n < nodes; n++ {
				want := stat(tm, n)
				got := byNode[n][(tm-start-int64(day)*86400)/step]
				if got != want {
					t.Fatalf("day %d node %d t=%d: %+v, want %+v", day, n, tm, got, want)
				}
				vals := []float64{float64(want.Count), want.Min, want.Max, want.Mean, want.Std}
				if err := red.Add(tm, int64(n), vals); err != nil {
					t.Fatal(err)
				}
			}
		}
		roll, err := rds.ReadDay(day)
		if err != nil {
			t.Fatal(err)
		}
		want := red.Table()
		for _, wc := range want.Cols {
			gc := roll.Col(wc.Name)
			if gc == nil || gc.Len() != wc.Len() {
				t.Fatalf("day %d: companion column %q missing or short", day, wc.Name)
			}
			for r := range wc.Ints {
				if gc.Ints[r] != wc.Ints[r] {
					t.Fatalf("day %d companion %q row %d: %d != %d", day, wc.Name, r, gc.Ints[r], wc.Ints[r])
				}
			}
			for r := range wc.Floats {
				if math.Float64bits(gc.Floats[r]) != math.Float64bits(wc.Floats[r]) {
					t.Fatalf("day %d companion %q row %d: %v != %v", day, wc.Name, r, gc.Floats[r], wc.Floats[r])
				}
			}
		}
	}
}

// TestNodeDatasetWriterPresizesDays drives two writers from one simulated
// run: one sees the run's span on every snapshot and pre-sizes each day's
// row buffers, the other sees the span fields zeroed and grows by append.
// The writer cuts days 24 h from the first window, so the short run is one
// partial day and the long run is two full days and a partial last one.
// Within a day the pre-sized buffers never regrow — the first day's are
// exactly one row per node per window — and both writers' partitions and
// rollup companions are byte-identical.
func TestNodeDatasetWriterPresizesDays(t *testing.T) {
	for _, span := range []int64{10 * 3600, 60 * 3600} {
		cfg := sim.Config{
			Seed: 5, Nodes: 12, StartTime: 1_577_836_800,
			DurationSec: span, StepSec: 600, SamplesPerWindow: 1,
			Jobs: 10, FailureRateScale: 1,
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sized, grown := t.TempDir(), t.TempDir()
		ws, err := NewNodeDatasetWriter(sized, cfg.Nodes, "")
		if err != nil {
			t.Fatal(err)
		}
		wg, err := NewNodeDatasetWriter(grown, cfg.Nodes, "")
		if err != nil {
			t.Fatal(err)
		}
		dayCap, day := -1, -1
		if _, err := s.Run(sim.ObserverFunc(func(snap *sim.Snapshot) {
			ws.Observe(snap)
			if ws.day != day {
				day, dayCap = ws.day, cap(ws.ts)
				if want := cfg.Nodes * int(min(86400, span)/cfg.StepSec); day == 0 && dayCap != want {
					t.Errorf("span %d: day 0 buffers hold %d rows, want exactly %d", span, dayCap, want)
				}
			}
			for _, c := range []int{cap(ws.node), cap(ws.count), cap(ws.min), cap(ws.max), cap(ws.mean), cap(ws.std), cap(ws.ts)} {
				if c != dayCap {
					t.Fatalf("span %d day %d t=%d: buffer capacity %d, want %d all day",
						span, day, snap.T, c, dayCap)
				}
			}
			zeroed := *snap
			zeroed.StepSec, zeroed.EndTime = 0, 0
			wg.Observe(&zeroed)
		})); err != nil {
			t.Fatal(err)
		}
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
		if err := wg.Close(); err != nil {
			t.Fatal(err)
		}
		if want := int((span + 86399) / 86400); day+1 != want {
			t.Fatalf("span %d: writer saw %d days, want %d", span, day+1, want)
		}
		sameArchiveFiles(t, sized, grown)
	}
}

// sameArchiveFiles fails unless directories a and b hold the same file
// names with byte-identical contents.
func sameArchiveFiles(t *testing.T, a, b string) {
	t.Helper()
	list := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	na, nb := list(a), list(b)
	if len(na) == 0 || fmt.Sprint(na) != fmt.Sprint(nb) {
		t.Fatalf("archive files differ: %v vs %v", na, nb)
	}
	for _, name := range na {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Fatalf("%s differs between the pre-sized and the growing writer", name)
		}
	}
}
