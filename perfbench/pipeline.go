package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/units"
)

// analysis is one of the nine analyses over a RunSource.
type analysis struct {
	name string
	fn   func(src source.RunSource) (any, error)
}

func (a analysis) span() string { return "core." + a.name }

// earlyWarningSec and correlationAlpha are the parameters cmd/repro and
// the serving tier use.
const (
	earlyWarningSec  = units.SecondsPerHour
	correlationAlpha = 0.05
)

var analyses = []analysis{
	{"edges", func(s source.RunSource) (any, error) { v, err := core.EdgesFromSource(s); return v, err }},
	{"swings", func(s source.RunSource) (any, error) { v, err := core.SwingsFromSource(s); return v, err }},
	{"bands", func(s source.RunSource) (any, error) { v, err := core.ThermalBandsFromSource(s); return v, err }},
	{"earlywarning", func(s source.RunSource) (any, error) {
		v, err := core.EarlyWarningFromSource(s, earlyWarningSec)
		return v, err
	}},
	{"overcooling", func(s source.RunSource) (any, error) { v, err := core.OvercoolingFromSource(s); return v, err }},
	{"validation", func(s source.RunSource) (any, error) { v, err := core.ValidationFromSource(s); return v, err }},
	{"failure_composition", func(s source.RunSource) (any, error) {
		v, err := core.FailureCompositionFromSource(s)
		return v, err
	}},
	{"failure_correlation", func(s source.RunSource) (any, error) {
		v, err := core.FailureCorrelationFromSource(s, correlationAlpha)
		return v, err
	}},
	{"summary", func(s source.RunSource) (any, error) { v, err := core.SummaryFromSource(s); return v, err }},
}

// runAnalyses runs the nine analyses in order, one span each.
func runAnalyses(src source.RunSource, tr *tracer, parent, group int64) ([]any, []error) {
	vals := make([]any, len(analyses))
	errs := make([]error, len(analyses))
	for i, a := range analyses {
		sp := tr.start(a.span(), parent, group)
		vals[i], errs[i] = a.fn(src)
		tr.finish(sp)
	}
	return vals, errs
}

// runReports renders cmd/repro's report list, in its order.
func runReports(d *repro.RunData, vc *core.VariabilityCollector, seed uint64) ([]string, []error) {
	fns := []func() (repro.Report, error){
		func() (repro.Report, error) { return repro.ReportTable3(), nil },
		func() (repro.Report, error) { return repro.ReportScheduling(d), nil },
		func() (repro.Report, error) { return repro.ReportFigure4(d) },
		func() (repro.Report, error) { return repro.ReportFigure5(d) },
		func() (repro.Report, error) { return repro.ReportFigure6(d) },
		func() (repro.Report, error) { return repro.ReportFigure7(d) },
		func() (repro.Report, error) { return repro.ReportFigure8(d) },
		func() (repro.Report, error) { return repro.ReportFigure9(d) },
		func() (repro.Report, error) { return repro.ReportFigure10(d), nil },
		func() (repro.Report, error) { return repro.ReportFigure11(d), nil },
		func() (repro.Report, error) { return repro.ReportFigure12(d), nil },
		func() (repro.Report, error) { return repro.ReportThermalBands(d) },
		func() (repro.Report, error) { return repro.ReportOvercooling(d) },
		func() (repro.Report, error) { return repro.ReportTable4(d), nil },
		func() (repro.Report, error) { return repro.ReportFigure13(d) },
		func() (repro.Report, error) { return repro.ReportFigure14(d), nil },
		func() (repro.Report, error) { return repro.ReportFigure15(d), nil },
		func() (repro.Report, error) { return repro.ReportFigure16(d), nil },
		func() (repro.Report, error) { return repro.ReportFigure17(vc, d) },
		func() (repro.Report, error) { return repro.ReportFingerprints(d) },
		func() (repro.Report, error) { return repro.ReportGenerations(seed) },
	}
	texts := make([]string, len(fns))
	errs := make([]error, len(fns))
	for i, fn := range fns {
		rep, err := fn()
		texts[i], errs[i] = rep.String(), err
	}
	return texts, errs
}

// pipelineSizes states the paper-pipeline input size.
type pipelineSizes struct {
	Nodes    int     `json:"nodes"`
	Hours    float64 `json:"hours"`
	StartDay int     `json:"start_day"`
	Windows  int     `json:"windows"`
	Inputs   int     `json:"inputs"`
}

// pipelineRef is one input of the workload and what every pass over it
// must reproduce: the in-memory run's counts, its nine analyses over
// RunData.Source, and its report texts.
type pipelineRef struct {
	cfg      sim.Config
	counts   simCounts
	analyses []any
	reports  []string
}

// pipelineBench is the paper-pipeline workload: one whole reproduction per
// pass, from sim.New to the last report, into a fresh directory. Passes
// cycle over several inputs derived from the seed: the cost of a pass
// depends on the job mix (idle nodes compress better), and one run
// averages over several mixes instead of repeating one.
type pipelineBench struct {
	o      options
	sz     pipelineSizes
	refs   []*pipelineRef
	passes int
}

func newPipelineBench(o options) bench {
	sz := pipelineSizes{Nodes: 256, Hours: 12, StartDay: 14, Inputs: 8}
	if o.tiny {
		sz = pipelineSizes{Nodes: 36, Hours: 2, StartDay: 14, Inputs: 2}
	}
	return &pipelineBench{o: o, sz: sz}
}

func (p *pipelineBench) sizes() any { return p.sz }

func (p *pipelineBench) setups() int { return p.sz.Inputs }

// setup builds the next input's reference from an in-memory run. It is
// not traced, so traced per-layer times cover the passes alone.
func (p *pipelineBench) setup(*tracer) error {
	cfg := repro.ScaledConfig(p.sz.Nodes, time.Duration(p.sz.Hours*float64(time.Hour)))
	cfg.Seed = sim.DeriveSeed(p.o.seed, len(p.refs))
	cfg.StartTime = 1_577_836_800 + int64(p.sz.StartDay)*86400
	var col *core.Collector
	var vc *core.VariabilityCollector
	res, err := simulate(cfg, nil, 0, 0, func(s *sim.Sim) ([]observer, error) {
		col = core.NewCollector(s, cfg)
		var err error
		vc, err = core.NewVariabilityCollector(s, -1)
		return []observer{{spCollector, col}, {spVariability, vc}}, err
	})
	if err != nil {
		return err
	}
	col.SetFailures(res.Failures)
	d := col.Data()
	ref := &pipelineRef{cfg: cfg, counts: countsOf(res)}
	var errs []error
	ref.analyses, errs = runAnalyses(d.Source(), nil, 0, 0)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference %s: %w", analyses[i].name, err)
		}
	}
	ref.reports, errs = runReports(d, vc, cfg.Seed)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference report %d: %w", i, err)
		}
	}
	p.refs = append(p.refs, ref)
	p.sz.Windows = ref.counts.Windows
	return nil
}

// totals sums the counts over the inputs: fixed for a seed.
func (p *pipelineBench) totals() simCounts {
	var t simCounts
	for _, r := range p.refs {
		t.Windows += r.counts.Windows
		t.JobsPlaced += r.counts.JobsPlaced
		t.FailuresInjected += r.counts.FailuresInjected
	}
	return t
}

func (p *pipelineBench) property() (string, error) {
	t := p.totals()
	return fmt.Sprintf("batch: one pass = %d nodes x %.0f h (%d windows), cycling over %d inputs (%d jobs, %d failures in all), one pass at a time, nothing concurrent beyond the simulator's worker pool",
		p.sz.Nodes, p.sz.Hours, p.sz.Windows, len(p.refs), t.JobsPlaced, t.FailuresInjected), nil
}

func (p *pipelineBench) close() {}

func (p *pipelineBench) aliases(p50, _, _ float64, n int) metricSet {
	m := metricSet{}
	m.set("pipeline_s", p50/msPerSecond, "s", n)
	return m
}

// passOutcome is one pass's timing, check results and store counters.
type passOutcome struct {
	elapsed           time.Duration
	checks            int
	problems          []string
	bytes, nodeBytes  int64
	cacheHits, misses int64
}

// pass runs one reproduction into a fresh directory and checks it.
func (p *pipelineBench) pass(tr *tracer) (*passOutcome, error) {
	ref := p.refs[p.passes%len(p.refs)]
	cfg := ref.cfg
	dir := filepath.Join(p.o.work, fmt.Sprintf("pass-%d", p.passes))
	p.passes++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	group := tr.newGroup()
	root := tr.start("bench.pass", 0, group)
	parent := root.spanID()
	t0 := time.Now()
	var col *core.Collector
	var vc *core.VariabilityCollector
	var nw *core.NodeDatasetWriter
	res, err := simulate(cfg, tr, parent, group, func(s *sim.Sim) ([]observer, error) {
		col = core.NewCollector(s, cfg)
		var err error
		if vc, err = core.NewVariabilityCollector(s, -1); err != nil {
			return nil, err
		}
		if nw, err = core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site); err != nil {
			return nil, err
		}
		return []observer{{spCollector, col}, {spVariability, vc}, {spNodeWriter, nw}}, nil
	})
	if err != nil {
		return nil, err
	}
	sp := tr.start(spNodeWriterDone, parent, group)
	err = nw.Close()
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	col.SetFailures(res.Failures)
	d := col.Data()
	sp = tr.start(spWriteDatasets, parent, group)
	err = core.WriteDatasets(dir, d)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	cache := store.NewTableCache(256 << 20)
	sp = tr.start(spOpenArchive, parent, group)
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir, Cache: cache})
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	got, aerrs := runAnalyses(src, tr, parent, group)
	sp = tr.start(spReports, parent, group)
	texts, rerrs := runReports(d, vc, cfg.Seed)
	tr.finish(sp)
	out := &passOutcome{elapsed: time.Since(t0)}
	tr.finish(root)

	check := func(ok bool, format string, args ...any) {
		out.checks++
		if !ok {
			out.problems = append(out.problems, fmt.Sprintf(format, args...))
		}
	}
	c := countsOf(res)
	check(c.Windows == ref.counts.Windows, "sim.windows %d, reference %d", c.Windows, ref.counts.Windows)
	check(c.JobsPlaced == ref.counts.JobsPlaced, "sim.jobs_placed %d, reference %d", c.JobsPlaced, ref.counts.JobsPlaced)
	check(c.FailuresInjected == ref.counts.FailuresInjected,
		"sim.failures_injected %d, reference %d", c.FailuresInjected, ref.counts.FailuresInjected)
	for i, a := range analyses {
		check(aerrs[i] == nil && bitEqual(got[i], ref.analyses[i]),
			"%s over the re-opened archive differs from RunData.Source (err %v)", a.name, aerrs[i])
	}
	for i := range texts {
		check(rerrs[i] == nil && texts[i] == ref.reports[i], "report %d differs from the reference (err %v)", i, rerrs[i])
	}
	cc := cache.Counters()
	out.cacheHits, out.misses = cc.Hits, cc.Misses
	out.bytes, out.nodeBytes, err = archiveBytes(dir)
	return out, err
}

// archiveBytes sums the archive's file sizes, and separately those of the
// per-node dataset and its rollup companion.
func archiveBytes(dir string) (all, node int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		all += info.Size()
		if strings.HasPrefix(d.Name(), core.DatasetNodePower) {
			node += info.Size()
		}
		return nil
	})
	return all, node, err
}

func (p *pipelineBench) measure(seconds float64, tr *tracer) (*phase, error) {
	ph := &phase{layer: metricSet{}}
	var passMS []float64
	var total time.Duration
	var bytes, nodeBytes, hits, misses int64
	start := time.Now()
	for len(passMS) == 0 || time.Since(start).Seconds() < seconds {
		out, err := p.pass(tr)
		if err != nil {
			return nil, err
		}
		passMS = append(passMS, ms(out.elapsed))
		total += out.elapsed
		ph.attempted += int64(out.checks)
		ph.failed += int64(len(out.problems))
		ph.problems = append(ph.problems, out.problems...)
		bytes += out.bytes
		nodeBytes += out.nodeBytes
		hits += out.cacheHits
		misses += out.misses
	}
	n := len(passMS)
	ph.cost = total.Seconds() / float64(n)
	ph.latMS, ph.done, ph.elapsed = passMS, float64(p.sz.Nodes*p.sz.Windows*n), total

	st := tr.stats()
	setSimLayer(ph.layer, st, p.sz.Nodes*p.sz.Windows, p.totals())
	ph.layer.set("store.bytes_written", float64(bytes)/float64(n), "bytes", n)
	ph.layer.set("store.node_bytes_written", float64(nodeBytes)/float64(n), "bytes", n)
	if writer := st.self[spNodeWriter] + st.self[spNodeWriterDone] + st.self[spWriteDatasets]; tr != nil && writer > 0 {
		ph.layer.set("store.write_mb_per_s", float64(bytes)/bytesPerMB/writer.Seconds(), "MB/s", n)
	}
	ph.layer.set("store.cache_hits", float64(hits)/float64(n), "count", n)
	ph.layer.set("store.cache_misses", float64(misses)/float64(n), "count", n)
	return ph, nil
}
