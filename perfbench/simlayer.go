package main

import (
	"time"

	"repro/internal/sim"
)

// Span names of the calls the benchmark wraps. The per-layer metrics are
// reduced from them by name.
const (
	spSimNew         = "sim.New"
	spSimRun         = "sim.Run"
	spCollector      = "core.Collector.Observe"
	spVariability    = "core.VariabilityCollector.Observe"
	spNodeWriter     = "core.NodeDatasetWriter.Observe"
	spNodeWriterDone = "core.NodeDatasetWriter.Close"
	spWriteDatasets  = "core.WriteDatasets"
	spOpenArchive    = "source.OpenArchive"
	spReports        = "repro.reports"
)

// observer is a sim.Observer with the span name its calls are recorded
// under.
type observer struct {
	span string
	obs  sim.Observer
}

// spanObserver records one span per observed window.
type spanObserver struct {
	observer
	tr            *tracer
	parent, group int64
}

func (o *spanObserver) Observe(s *sim.Snapshot) {
	sp := o.tr.start(o.span, o.parent, o.group)
	o.obs.Observe(s)
	o.tr.finish(sp)
}

// simulate drives sim.New and Run. attach builds the observers once the
// simulator exists; when traced, each is wrapped so its time shows as a
// child of the Run span and Run's self time is the simulator's own.
func simulate(cfg sim.Config, tr *tracer, parent, group int64,
	attach func(s *sim.Sim) ([]observer, error)) (*sim.Result, error) {
	sp := tr.start(spSimNew, parent, group)
	s, err := sim.New(cfg)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	obs, err := attach(s)
	if err != nil {
		return nil, err
	}
	run := tr.start(spSimRun, parent, group)
	wrapped := make([]sim.Observer, len(obs))
	for i, o := range obs {
		if tr == nil {
			wrapped[i] = o.obs
			continue
		}
		wrapped[i] = &spanObserver{observer: o, tr: tr, parent: run.spanID(), group: group}
	}
	res, err := s.Run(wrapped...)
	tr.finish(run)
	return res, err
}

// simCounts are the sim.Result counts that must repeat exactly per seed.
type simCounts struct {
	Windows, JobsPlaced, FailuresInjected int
}

func countsOf(res *sim.Result) simCounts {
	return simCounts{Windows: res.Steps, JobsPlaced: len(res.Allocations), FailuresInjected: len(res.Failures)}
}

// setSimLayer reduces the sim, core, source and repro spans to per-run
// metrics: each time is the span self time summed over the run's spans of
// that name, divided by the number of simulator runs traced. nodeWindows
// is the work of one simulator run; c holds the counts to report.
func setSimLayer(m metricSet, st traceStats, nodeWindows int, c simCounts) {
	runs := st.count[spSimRun]
	if runs == 0 {
		return
	}
	per := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += st.self[n]
		}
		return d.Seconds() / float64(runs)
	}
	m.set("sim.new_s", per(spSimNew), "s", runs)
	runSelf := per(spSimRun)
	m.set("sim.run_self_s", runSelf, "s", runs)
	if runSelf > 0 {
		m.set("sim.node_windows_per_s", float64(nodeWindows)/runSelf, "1/s", runs)
	}
	m.set("sim.windows", float64(c.Windows), "count", runs)
	m.set("sim.jobs_placed", float64(c.JobsPlaced), "count", runs)
	m.set("sim.failures_injected", float64(c.FailuresInjected), "count", runs)
	m.set("core.collector_s", per(spCollector), "s", runs)
	m.set("core.variability_s", per(spVariability), "s", runs)
	m.set("core.node_writer_s", per(spNodeWriter, spNodeWriterDone), "s", runs)
	m.set("core.write_datasets_s", per(spWriteDatasets), "s", runs)
	m.set("source.open_s", per(spOpenArchive), "s", runs)
	m.set("repro.reports_s", per(spReports), "s", runs)
	var all []string
	for _, a := range analyses {
		m.set("core."+a.name+"_s", per(a.span()), "s", runs)
		all = append(all, a.span())
	}
	m.set("core.analysis_s", per(all...), "s", runs)
}
