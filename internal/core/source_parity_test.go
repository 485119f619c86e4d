package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
)

// TestSourcePlaneParity is the golden guarantee of the RunSource layer: a
// simulated run archived and re-opened answers every accessor and every
// refactored analysis bit-identically (tolerance 0) to its in-memory
// source. The run spans more than one day so the archive path exercises
// multi-partition reconstruction.
func TestSourcePlaneParity(t *testing.T) {
	cfg := sim.Config{
		Seed:             7,
		Nodes:            18, // trimmed so the race-detector CI run stays bounded
		StartTime:        1_577_836_800,
		DurationSec:      26 * 3600, // just over a day -> two partitions
		StepSec:          10,
		SamplesPerWindow: 2,
		Jobs:             40,
		FailureRateScale: 2000,
		FailureCheckSec:  120,
	}
	d, _, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	mem := d.Source()
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	memMeta, err := mem.Meta()
	if err != nil {
		t.Fatal(err)
	}
	arcMeta, err := arc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if memMeta != arcMeta {
		t.Fatalf("meta differs: mem %+v, archive %+v", memMeta, arcMeta)
	}

	// Every series both planes list must match bit for bit.
	memNames, err := mem.SeriesNames()
	if err != nil {
		t.Fatal(err)
	}
	arcNames, err := arc.SeriesNames()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(memNames) != fmt.Sprint(arcNames) {
		t.Fatalf("series inventories differ:\nmem     %v\narchive %v", memNames, arcNames)
	}
	for _, name := range memNames {
		ms, err := mem.Series(name)
		if err != nil {
			t.Fatal(err)
		}
		as, err := arc.Series(name)
		if err != nil {
			t.Fatalf("archive series %q: %v", name, err)
		}
		if ms.Start != as.Start || ms.Step != as.Step || ms.Len() != as.Len() {
			t.Fatalf("series %q shape differs: mem (%d,%d,%d) archive (%d,%d,%d)",
				name, ms.Start, ms.Step, ms.Len(), as.Start, as.Step, as.Len())
		}
		for i := range ms.Vals {
			if math.Float64bits(ms.Vals[i]) != math.Float64bits(as.Vals[i]) {
				t.Fatalf("series %q window %d: mem %v, archive %v",
					name, i, ms.Vals[i], as.Vals[i])
			}
		}
	}

	// Job records row for row.
	memJobs, err := mem.JobRecords()
	if err != nil {
		t.Fatal(err)
	}
	arcJobs, err := arc.JobRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(memJobs) == 0 || len(memJobs) != len(arcJobs) {
		t.Fatalf("job counts differ: mem %d, archive %d", len(memJobs), len(arcJobs))
	}
	for i := range memJobs {
		if fmt.Sprintf("%+v", memJobs[i]) != fmt.Sprintf("%+v", arcJobs[i]) {
			t.Fatalf("job %d differs:\nmem     %+v\narchive %+v", i, memJobs[i], arcJobs[i])
		}
	}

	// Failure log event for event. The archive cannot carry project
	// strings, so Project is excluded from the comparison.
	memEvs, err := mem.Failures()
	if err != nil {
		t.Fatal(err)
	}
	arcEvs, err := arc.Failures()
	if err != nil {
		t.Fatal(err)
	}
	if len(memEvs) == 0 || len(memEvs) != len(arcEvs) {
		t.Fatalf("failure counts differ: mem %d, archive %d", len(memEvs), len(arcEvs))
	}
	for i := range memEvs {
		a, b := memEvs[i], arcEvs[i]
		if a.Time != b.Time || a.Node != b.Node || a.Slot != b.Slot ||
			a.Type != b.Type || a.JobID != b.JobID ||
			math.Float64bits(a.TempC) != math.Float64bits(b.TempC) ||
			math.Float64bits(a.TempZ) != math.Float64bits(b.TempZ) {
			t.Fatalf("failure %d differs:\nmem     %+v\narchive %+v", i, a, b)
		}
	}

	// Every refactored analysis must produce identical output from both
	// planes. Reports are plain data; %#v captures every field.
	check := func(what string, fromMem, fromArc any, errM, errA error) {
		t.Helper()
		if errM != nil || errA != nil {
			t.Fatalf("%s: mem err %v, archive err %v", what, errM, errA)
		}
		gm, ga := fmt.Sprintf("%#v", fromMem), fmt.Sprintf("%#v", fromArc)
		if gm != ga {
			t.Errorf("%s differs:\nmem     %.400s\narchive %.400s", what, gm, ga)
		}
	}
	{
		a, e1 := EdgesFromSource(mem)
		b, e2 := EdgesFromSource(arc)
		check("edges", a, b, e1, e2)
	}
	{
		a, e1 := SwingsFromSource(mem)
		b, e2 := SwingsFromSource(arc)
		check("swings", a, b, e1, e2)
	}
	{
		a, e1 := ThermalBandsFromSource(mem)
		b, e2 := ThermalBandsFromSource(arc)
		check("bands", a, b, e1, e2)
	}
	{
		a, e1 := EarlyWarningFromSource(mem, 3600)
		b, e2 := EarlyWarningFromSource(arc, 3600)
		check("earlywarning", a, b, e1, e2)
	}
	{
		a, e1 := OvercoolingFromSource(mem)
		b, e2 := OvercoolingFromSource(arc)
		check("overcooling", a, b, e1, e2)
	}
	{
		a, e1 := ValidationFromSource(mem)
		b, e2 := ValidationFromSource(arc)
		check("validation", a, b, e1, e2)
	}
	{
		a, e1 := FailureCompositionFromSource(mem)
		b, e2 := FailureCompositionFromSource(arc)
		check("composition", a, b, e1, e2)
	}
	{
		a, e1 := FailureCorrelationFromSource(mem, 0.05)
		b, e2 := FailureCorrelationFromSource(arc, 0.05)
		check("correlation", a, b, e1, e2)
	}
	{
		a, e1 := SummaryFromSource(mem)
		b, e2 := SummaryFromSource(arc)
		check("summary", a, b, e1, e2)
	}
}

// TestArchiveSourcePruning verifies that a ranged read prunes partitions —
// asking for a window inside day 0 must not decode day 1 — and pins the
// cluster plane's admission rule: the first in-range read decodes the
// surviving day once, whole, and admits it; the repeat read is a cache hit.
func TestArchiveSourcePruning(t *testing.T) {
	cfg := sim.Config{
		Seed: 3, Nodes: 12, StartTime: 1_577_836_800,
		DurationSec: 2 * 86400, StepSec: 60, SamplesPerWindow: 1,
		Jobs: 10, FailureRateScale: 1,
	}
	d, _, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	cache := store.NewTableCache(256 << 20)
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Counters()
	t0 := cfg.StartTime + 3600
	s, err := arc.SeriesRange(source.SeriesClusterPower, t0, t0+3600)
	if err != nil {
		t.Fatal(err)
	}
	inRange := 0
	for i, v := range s.Vals {
		if math.IsNaN(v) {
			continue
		}
		tv := s.TimeAt(i)
		if tv < t0 || tv >= t0+3600 {
			t.Fatalf("value outside requested range at %d", tv)
		}
		inRange++
	}
	if want := int(3600 / cfg.StepSec); inRange != want {
		t.Fatalf("ranged read returned %d values, want %d", inRange, want)
	}
	// Every decode goes through one cache lookup, so one miss means the
	// pruned day was never decoded; the surviving day is admitted at first
	// touch as exactly one whole-partition entry.
	cold := cache.Counters()
	if misses := cold.Misses - before.Misses; misses != 1 {
		t.Fatalf("cold pruned read looked up %d partitions, want 1", misses)
	}
	if entries, _ := arc.CacheStats(); entries != 1 {
		t.Fatalf("cold pruned read cached %d partitions, want 1", entries)
	}
	// The repeat read is served from that entry, bit-identically.
	s2, err := arc.SeriesRange(source.SeriesClusterPower, t0, t0+3600)
	if err != nil {
		t.Fatal(err)
	}
	hot := cache.Counters()
	if hot.Misses != cold.Misses || hot.Hits-cold.Hits != 1 {
		t.Fatalf("repeat read: %d misses, %d hits; want 0 and 1",
			hot.Misses-cold.Misses, hot.Hits-cold.Hits)
	}
	if len(s2.Vals) != len(s.Vals) {
		t.Fatalf("hot read returned %d values, want %d", len(s2.Vals), len(s.Vals))
	}
	for i, v := range s2.Vals {
		if math.Float64bits(v) != math.Float64bits(s.Vals[i]) {
			t.Fatalf("hot read diverged at slot %d: %v != %v", i, v, s.Vals[i])
		}
	}
	if _, ok := cache.Get(store.CacheKey(source.DatasetClusterPower, 0, nil)); !ok {
		t.Fatal("surviving day not cached under its whole-partition key")
	}
	if _, ok := cache.Get(store.CacheKey(source.DatasetClusterPower, 1, nil)); ok {
		t.Fatal("pruned day was admitted")
	}
}

// decodeOnceArchive archives a run spanning three daily partitions, with
// failures for the failure analyses, and returns its directory.
func decodeOnceArchive(t *testing.T) string {
	t.Helper()
	cfg := sim.Config{
		Seed: 11, Nodes: 12, StartTime: 1_577_836_800,
		DurationSec: 60 * 3600, StepSec: 60, SamplesPerWindow: 1,
		Jobs: 20, FailureRateScale: 2000, FailureCheckSec: 600,
	}
	d, _, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestArchiveAnalysesDecodeOnce pins the cluster plane's read cost: the
// nine analyses over a re-opened archive decode each cluster partition
// exactly once, however many series they ask for.
func TestArchiveAnalysesDecodeOnce(t *testing.T) {
	dir := decodeOnceArchive(t)
	ds, err := store.NewDataset(dir, source.DatasetClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	days, err := ds.Days()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) < 3 {
		t.Fatalf("archive has %d cluster partitions, want >= 3", len(days))
	}
	cache := store.NewTableCache(256 << 20)
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the failure log first so every miss below is a cluster decode.
	if _, err := arc.Failures(); err != nil {
		t.Fatal(err)
	}
	before := cache.Counters()
	analyses := []func() error{
		func() error { _, err := EdgesFromSource(arc); return err },
		func() error { _, err := SwingsFromSource(arc); return err },
		func() error { _, err := ThermalBandsFromSource(arc); return err },
		func() error { _, err := EarlyWarningFromSource(arc, 3600); return err },
		func() error { _, err := OvercoolingFromSource(arc); return err },
		func() error { _, err := ValidationFromSource(arc); return err },
		func() error { _, err := FailureCompositionFromSource(arc); return err },
		func() error { _, err := FailureCorrelationFromSource(arc, 0.05); return err },
		func() error { _, err := SummaryFromSource(arc); return err },
	}
	for i, fn := range analyses {
		if err := fn(); err != nil {
			t.Fatalf("analysis %d: %v", i, err)
		}
	}
	after := cache.Counters()
	if misses := after.Misses - before.Misses; misses != int64(len(days)) {
		t.Fatalf("nine analyses missed the cache %d times, want one per cluster partition (%d)",
			misses, len(days))
	}
	if after.Hits == before.Hits {
		t.Fatal("nine analyses never hit the cache")
	}
}

// TestArchiveSeriesConcurrentColdReads races Series and MeterSeries calls on
// a cold source against each other: every series must come back
// bit-identical to a sequential read (run under -race).
func TestArchiveSeriesConcurrentColdReads(t *testing.T) {
	dir := decodeOnceArchive(t)
	open := func() *source.ArchiveSource {
		arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir, Cache: store.NewTableCache(256 << 20)})
		if err != nil {
			t.Fatal(err)
		}
		return arc
	}
	seq := open()
	names, err := seq.SeriesNames()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{}
	for _, name := range names {
		s, err := seq.Series(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = s.Vals
	}
	wantMeters, wantSums, err := seq.MeterSeries()
	if err != nil {
		t.Fatal(err)
	}

	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	arc := open()
	const rounds = 2
	errs := make(chan error, rounds*(len(names)+1))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				s, err := arc.Series(name)
				if err == nil && !same(s.Vals, want[name]) {
					err = fmt.Errorf("series %q diverged from the sequential read", name)
				}
				errs <- err
			}(name)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			meters, sums, err := arc.MeterSeries()
			if err == nil && (len(meters) != len(wantMeters) || len(sums) != len(wantSums)) {
				err = fmt.Errorf("meter series: %d/%d pairs, want %d/%d",
					len(meters), len(sums), len(wantMeters), len(wantSums))
			}
			for m := 0; err == nil && m < len(meters); m++ {
				if !same(meters[m].Vals, wantMeters[m].Vals) || !same(sums[m].Vals, wantSums[m].Vals) {
					err = fmt.Errorf("meter pair %d diverged from the sequential read", m)
				}
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
