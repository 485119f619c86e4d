package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/tsagg"
)

// Dataset names mirroring the paper's artifact appendix. The canonical
// definitions live in internal/source (the archive's decode side); these
// aliases keep the historical core names working.
const (
	DatasetClusterPower = source.DatasetClusterPower // Datasets 1–2 + facility (B/12)
	DatasetJobRecords   = source.DatasetJobRecords   // Datasets 5–7
	DatasetFailures     = source.DatasetFailures     // Dataset E
)

// WriteDatasets archives the run data into dir as daily-partitioned
// columnar files, mirroring the paper's one-file-per-day layout. A one-row
// run-meta manifest makes the archive self-describing, so readers recover
// the system size and coarsening grid without out-of-band flags.
func WriteDatasets(dir string, d *RunData) error {
	if err := writeManifest(dir, d); err != nil {
		return err
	}
	if err := writeClusterDataset(dir, d); err != nil {
		return err
	}
	if err := writeJobDataset(dir, d); err != nil {
		return err
	}
	return writeFailureDataset(dir, d)
}

func writeManifest(dir string, d *RunData) error {
	ds, err := store.NewDataset(dir, source.DatasetRunMeta)
	if err != nil {
		return err
	}
	return ds.WriteDay(0, source.ManifestTable(source.Meta{
		StartTime: d.StartTime,
		StepSec:   d.StepSec,
		Nodes:     d.Nodes,
		Windows:   d.ClusterPower.Len(),
		Cluster:   d.Cluster,
		Site:      d.Site,
	}))
}

func writeClusterDataset(dir string, d *RunData) error {
	ds, err := store.NewDataset(dir, DatasetClusterPower)
	if err != nil {
		return err
	}
	const daySec = 86400
	end := d.ClusterPower.End()
	day := 0
	for t0 := d.StartTime; t0 < end; t0 += daySec {
		t1 := t0 + daySec
		slice := func(s *tsagg.Series) []float64 { return s.Slice(t0, t1).Vals }
		power := slice(d.ClusterPower)
		ts := make([]int64, len(power))
		for i := range ts {
			ts[i] = t0 + int64(i)*d.StepSec
		}
		tab := &store.Table{Cols: []store.Column{
			{Name: "timestamp", Ints: ts},
			{Name: "sum_inp", Floats: power},
			{Name: "sum_inp_true", Floats: slice(d.ClusterTruePower)},
			{Name: "cpu_power", Floats: slice(d.ClusterCPUPower)},
			{Name: "gpu_power", Floats: slice(d.ClusterGPUPower)},
			{Name: "pue", Floats: slice(d.PUE)},
			{Name: "mtwst", Floats: slice(d.SupplyC)},
			{Name: "mtwrt", Floats: slice(d.ReturnC)},
			{Name: "tower_tons", Floats: slice(d.TowerTons)},
			{Name: "chiller_tons", Floats: slice(d.ChillerTons)},
			{Name: "wet_bulb", Floats: slice(d.WetBulbC)},
			{Name: "gpu_core_temp_mean", Floats: slice(d.GPUTempMean)},
			{Name: "gpu_core_temp_max", Floats: slice(d.GPUTempMax)},
		}}
		optional := func(name string, s *tsagg.Series) {
			if s == nil {
				return
			}
			tab.Cols = append(tab.Cols, store.Column{Name: name, Floats: slice(s)})
		}
		optional(source.SeriesTowerCount, d.TowerCount)
		optional(source.SeriesChillerCount, d.ChillerCount)
		optional(source.SeriesCPUTempMean, d.CPUTempMean)
		optional(source.SeriesCPUTempMax, d.CPUTempMax)
		for b := 0; b < NumTempBands; b++ {
			optional(source.GPUBandSeries(b), d.GPUTempBands[b])
		}
		// The per-MSB validation pairs ride along in the cluster dataset so
		// Figure 4 runs against an archive too.
		for m := range d.MeterPower {
			optional(source.MeterSeriesName(m), d.MeterPower[m])
			if m < len(d.MSBSensorSum) {
				optional(source.MSBSumSeriesName(m), d.MSBSensorSum[m])
			}
		}
		if err := ds.WriteDay(day, tab); err != nil {
			return fmt.Errorf("core: write cluster day %d: %w", day, err)
		}
		day++
	}
	return nil
}

func writeJobDataset(dir string, d *RunData) error {
	ds, err := store.NewDataset(dir, DatasetJobRecords)
	if err != nil {
		return err
	}
	recs := BuildJobRecords(d)
	n := len(recs)
	cols := struct {
		id, class, domain, nodes, begin, end        []int64
		maxP, meanP, energy, mCPU, xCPU, mGPU, xGPU []float64
	}{
		id: make([]int64, n), class: make([]int64, n), domain: make([]int64, n),
		nodes: make([]int64, n), begin: make([]int64, n), end: make([]int64, n),
		maxP: make([]float64, n), meanP: make([]float64, n),
		energy: make([]float64, n), mCPU: make([]float64, n),
		xCPU: make([]float64, n), mGPU: make([]float64, n), xGPU: make([]float64, n),
	}
	for i, r := range recs {
		a := &d.Allocations[r.AllocIdx]
		cols.id[i] = r.JobID
		cols.class[i] = int64(r.Class)
		cols.domain[i] = int64(r.Domain)
		cols.nodes[i] = int64(r.Nodes)
		cols.begin[i] = a.StartTime
		cols.end[i] = a.EndTime
		cols.maxP[i] = r.MaxPower
		cols.meanP[i] = r.MeanPower
		cols.energy[i] = r.EnergyJ
		cols.mCPU[i] = r.MeanCPUPower
		cols.xCPU[i] = r.MaxCPUPower
		cols.mGPU[i] = r.MeanGPUPower
		cols.xGPU[i] = r.MaxGPUPower
	}
	tab := &store.Table{Cols: []store.Column{
		{Name: "allocation_id", Ints: cols.id},
		{Name: "class", Ints: cols.class},
		{Name: "domain", Ints: cols.domain},
		{Name: "num_nodes", Ints: cols.nodes},
		{Name: "begin_time", Ints: cols.begin},
		{Name: "end_time", Ints: cols.end},
		{Name: "max_sum_inp", Floats: cols.maxP},
		{Name: "mean_sum_inp", Floats: cols.meanP},
		{Name: "energy", Floats: cols.energy},
		{Name: "mean_mean_cpu_pwr", Floats: cols.mCPU},
		{Name: "max_cpu_pwr", Floats: cols.xCPU},
		{Name: "mean_mean_gpu_pwr", Floats: cols.mGPU},
		{Name: "max_gpu_pwr", Floats: cols.xGPU},
	}}
	return ds.WriteDay(0, tab)
}

func writeFailureDataset(dir string, d *RunData) error {
	ds, err := store.NewDataset(dir, DatasetFailures)
	if err != nil {
		return err
	}
	n := len(d.Failures)
	ts := make([]int64, n)
	node := make([]int64, n)
	slot := make([]int64, n)
	typ := make([]int64, n)
	job := make([]int64, n)
	temp := make([]float64, n)
	z := make([]float64, n)
	for i, e := range d.Failures {
		ts[i] = e.Time
		node[i] = int64(e.Node)
		slot[i] = int64(e.Slot)
		typ[i] = int64(e.Type)
		job[i] = e.JobID
		temp[i] = e.TempC
		z[i] = e.TempZ
	}
	tab := &store.Table{Cols: []store.Column{
		{Name: "timestamp", Ints: ts},
		{Name: "node", Ints: node},
		{Name: "slot", Ints: slot},
		{Name: "xid_type", Ints: typ},
		{Name: "allocation_id", Ints: job},
		{Name: "gpu_core_temp", Floats: temp},
		{Name: "temp_zscore", Floats: z},
	}}
	return ds.WriteDay(0, tab)
}

// ReadClusterDataset loads the archived cluster series back into aligned
// Series keyed by column name.
func ReadClusterDataset(dir string, stepSec int64) (map[string]*tsagg.Series, error) {
	ds, err := store.NewDataset(dir, DatasetClusterPower)
	if err != nil {
		return nil, err
	}
	days, err := ds.Days()
	if err != nil {
		return nil, err
	}
	if len(days) == 0 {
		return nil, fmt.Errorf("core: no cluster dataset partitions in %s", dir)
	}
	out := map[string]*tsagg.Series{}
	for _, day := range days {
		tab, err := ds.ReadDay(day)
		if err != nil {
			return nil, err
		}
		tsCol := tab.Col("timestamp")
		if tsCol == nil || !tsCol.IsInt() || len(tsCol.Ints) == 0 {
			continue
		}
		for _, col := range tab.Cols {
			if col.IsInt() {
				continue
			}
			s, ok := out[col.Name]
			if !ok {
				s = tsagg.NewSeries(tsCol.Ints[0], stepSec, 0)
				out[col.Name] = s
			}
			// Extend storage to cover this day's span.
			for i, tv := range tsCol.Ints {
				idx := int((tv - s.Start) / stepSec)
				for idx >= len(s.Vals) {
					s.Vals = append(s.Vals, math.NaN())
				}
				if idx >= 0 {
					s.Vals[idx] = col.Floats[i]
				}
			}
		}
	}
	return out, nil
}

// ReadFailureDataset loads the archived failure log.
func ReadFailureDataset(dir string) ([]failures.Event, error) {
	ds, err := store.NewDataset(dir, DatasetFailures)
	if err != nil {
		return nil, err
	}
	tab, err := ds.ReadDay(0)
	if err != nil {
		return nil, err
	}
	get := func(name string) *store.Column {
		return tab.Col(name)
	}
	ts, node, slot, typ, job := get("timestamp"), get("node"), get("slot"), get("xid_type"), get("allocation_id")
	temp, z := get("gpu_core_temp"), get("temp_zscore")
	if ts == nil || node == nil || slot == nil || typ == nil || job == nil || temp == nil || z == nil {
		return nil, fmt.Errorf("core: failure dataset missing columns")
	}
	out := make([]failures.Event, tab.NumRows())
	for i := range out {
		out[i] = failures.Event{
			Time:  ts.Ints[i],
			Node:  topology.NodeID(node.Ints[i]),
			Slot:  topology.GPUSlot(slot.Ints[i]),
			Type:  failures.Type(typ.Ints[i]),
			JobID: job.Ints[i],
			TempC: temp.Floats[i],
			TempZ: z.Floats[i],
		}
	}
	return out, nil
}

// DatasetNodePower is the per-node window dataset (the paper's Dataset 0:
// per-node per-component 10-second aggregates). It is opt-in because its
// volume scales with nodes × windows.
const DatasetNodePower = source.DatasetNodePower

// NodeDatasetWriter is a sim.Observer that archives per-node input-power
// window statistics day by day — the Dataset 0 equivalent. Alongside each
// day partition it persists a pre-aggregate companion dataset
// ("node-power.rollup") holding per-cabinet/MSB/fleet accumulator state at
// coarse windows, which the query tier answers aligned rollups from without
// scanning a single per-node row.
type NodeDatasetWriter struct {
	ds      *store.Dataset
	rds     *store.Dataset // pre-aggregate companion (nil: disabled)
	floor   *topology.Floor
	nodes   int
	day     int
	dayEnd  int64
	started bool

	ts, node            []int64
	count               []int64
	min, max, mean, std []float64
	err                 error
}

// nodeRollupCols lists the day-table columns pre-aggregated into the rollup
// companion, in emission order (the count column rides along widened to
// float, matching how the scan path reads it).
var nodeRollupCols = []string{
	"input_power.count", "input_power.min", "input_power.max",
	"input_power.mean", "input_power.std",
}

// NewNodeDatasetWriter archives into dir. site selects the floor preset the
// cluster instantiates ("" = summit); the pre-aggregate companion follows
// its cabinet/switchboard geometry. nodes <= 0 disables pre-aggregation
// (the rollup groupings need a floor).
func NewNodeDatasetWriter(dir string, nodes int, site string) (*NodeDatasetWriter, error) {
	ds, err := store.NewDataset(dir, DatasetNodePower)
	if err != nil {
		return nil, err
	}
	w := &NodeDatasetWriter{ds: ds, nodes: nodes}
	if nodes > 0 {
		tcfg, err := topology.PresetScaled(site, nodes)
		if err != nil {
			return nil, fmt.Errorf("core: node dataset pre-aggregates: %w", err)
		}
		if w.floor, err = topology.New(tcfg); err != nil {
			return nil, fmt.Errorf("core: node dataset pre-aggregates: %w", err)
		}
		if w.rds, err = store.NewDataset(dir, source.RollupDatasetName(DatasetNodePower)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Observe implements sim.Observer.
func (w *NodeDatasetWriter) Observe(snap *sim.Snapshot) {
	if w.err != nil {
		return
	}
	if !w.started {
		w.started = true
		w.dayEnd = snap.T + 86400
	}
	if snap.T >= w.dayEnd {
		w.flush()
		w.day++
		w.dayEnd += 86400
	}
	for i := range snap.NodeStat {
		st := snap.NodeStat[i]
		w.ts = append(w.ts, st.T)
		w.node = append(w.node, int64(i))
		w.count = append(w.count, st.Count)
		w.min = append(w.min, st.Min)
		w.max = append(w.max, st.Max)
		w.mean = append(w.mean, st.Mean)
		w.std = append(w.std, st.Std)
	}
}

// flush writes the buffered day. The rollup companion is folded on a
// second goroutine while the day table encodes — both only read the row
// buffers — and written once the day partition is in place. The buffers are
// truncated for reuse only after both have finished.
func (w *NodeDatasetWriter) flush() {
	if w.err != nil || len(w.ts) == 0 {
		return
	}
	tab := &store.Table{Cols: []store.Column{
		{Name: "timestamp", Ints: w.ts},
		{Name: "node", Ints: w.node},
		{Name: "input_power.count", Ints: w.count},
		{Name: "input_power.min", Floats: w.min},
		{Name: "input_power.max", Floats: w.max},
		{Name: "input_power.mean", Floats: w.mean},
		{Name: "input_power.std", Floats: w.std},
	}}
	var (
		roll    *store.Table
		rollErr error
		wg      sync.WaitGroup
	)
	if w.rds != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			roll, rollErr = w.foldRollup()
		}()
	}
	w.err = w.ds.WriteDay(w.day, tab)
	wg.Wait()
	if w.err == nil && w.rds != nil {
		if w.err = rollErr; w.err == nil {
			w.err = w.rds.WriteDayCodec(w.day, roll, store.CodecGorilla)
		}
	}
	w.ts, w.node, w.count = w.ts[:0], w.node[:0], w.count[:0]
	w.min, w.max, w.mean, w.std = w.min[:0], w.max[:0], w.mean[:0], w.std[:0]
}

// foldRollup folds the day's rows — the same rows, in the same order as the
// day table — into the pre-aggregate companion partition, so a rollup
// answered from pre-aggregates is bit-identical to one scanned from the day
// table. The companion is tiny and cold-read, so it is stored with the
// Gorilla codec.
func (w *NodeDatasetWriter) foldRollup() (*store.Table, error) {
	red := source.NewRollupReducer(w.floor, nodeRollupCols)
	vals := make([]float64, len(nodeRollupCols))
	for i := range w.ts {
		vals[0] = float64(w.count[i])
		vals[1], vals[2] = w.min[i], w.max[i]
		vals[3], vals[4] = w.mean[i], w.std[i]
		if err := red.Add(w.ts[i], w.node[i], vals); err != nil {
			return nil, err
		}
	}
	return red.Table(), nil
}

// Close flushes the final partition, releases the row buffers and reports
// any deferred error.
func (w *NodeDatasetWriter) Close() error {
	w.flush()
	w.ts, w.node, w.count = nil, nil, nil
	w.min, w.max, w.mean, w.std = nil, nil, nil, nil
	return w.err
}

// ReadNodeDataset loads one day's per-node windows back, grouped by node.
func ReadNodeDataset(dir string, day int) (map[int][]tsagg.WindowStat, error) {
	ds, err := store.NewDataset(dir, DatasetNodePower)
	if err != nil {
		return nil, err
	}
	tab, err := ds.ReadDay(day)
	if err != nil {
		return nil, err
	}
	ts, node := tab.Col("timestamp"), tab.Col("node")
	count := tab.Col("input_power.count")
	minC, maxC := tab.Col("input_power.min"), tab.Col("input_power.max")
	meanC, stdC := tab.Col("input_power.mean"), tab.Col("input_power.std")
	if ts == nil || node == nil || count == nil || minC == nil ||
		maxC == nil || meanC == nil || stdC == nil {
		return nil, fmt.Errorf("core: node dataset missing columns")
	}
	out := map[int][]tsagg.WindowStat{}
	for i := 0; i < tab.NumRows(); i++ {
		n := int(node.Ints[i])
		out[n] = append(out[n], tsagg.WindowStat{
			T: ts.Ints[i], Count: count.Ints[i],
			Min: minC.Floats[i], Max: maxC.Floats[i],
			Mean: meanC.Floats[i], Std: stdC.Floats[i],
		})
	}
	return out, nil
}

// JobDatasetRow is one row of the archived job-records dataset.
type JobDatasetRow struct {
	AllocationID int64
	Class        int
	Domain       int
	Nodes        int
	BeginTime    int64
	EndTime      int64
	MaxPowerW    float64
	MeanPowerW   float64
	EnergyJ      float64
}

// ReadJobDataset loads the archived job records.
func ReadJobDataset(dir string) ([]JobDatasetRow, error) {
	ds, err := store.NewDataset(dir, DatasetJobRecords)
	if err != nil {
		return nil, err
	}
	tab, err := ds.ReadDay(0)
	if err != nil {
		return nil, err
	}
	need := []string{"allocation_id", "class", "domain", "num_nodes",
		"begin_time", "end_time", "max_sum_inp", "mean_sum_inp", "energy"}
	cols := map[string]*store.Column{}
	for _, name := range need {
		c := tab.Col(name)
		if c == nil {
			return nil, fmt.Errorf("core: job dataset missing column %q", name)
		}
		cols[name] = c
	}
	out := make([]JobDatasetRow, tab.NumRows())
	for i := range out {
		out[i] = JobDatasetRow{
			AllocationID: cols["allocation_id"].Ints[i],
			Class:        int(cols["class"].Ints[i]),
			Domain:       int(cols["domain"].Ints[i]),
			Nodes:        int(cols["num_nodes"].Ints[i]),
			BeginTime:    cols["begin_time"].Ints[i],
			EndTime:      cols["end_time"].Ints[i],
			MaxPowerW:    cols["max_sum_inp"].Floats[i],
			MeanPowerW:   cols["mean_sum_inp"].Floats[i],
			EnergyJ:      cols["energy"].Floats[i],
		}
	}
	return out, nil
}
