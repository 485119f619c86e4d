package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/units"
)

// liveRate is the fixed open-loop send rate in windows per second,
// 0.97 M samples/s on the full floor: about a fifth of the 4.7–6.5 M
// samples/s capacity this benchmark measured on a 2-vCPU Intel Xeon host
// (Go 1.24). property rejects a run on a host whose capacity at start is
// not above it.
//
// Every window puts one batch per frame into each shard queue, so the
// queues of streamd's default depth hold 256 / 16 = 16 windows. When the
// host stalls the generator, the open loop sends the overdue windows back
// to back on resuming, and the backlog lands in the queues at once. With
// a 0.2 s stall injected into every pass, the fullest queue reached 1.00
// at 75 windows/s (half the capacity) and 0.62 at 40; a shared host
// stalls that long once in a few dozen runs, and an overflow fails the
// run on dropped samples. At 30 windows/s a stall of about half a second
// still fits.
const liveRate = 30

// streamdQueue and streamdLateness are cmd/streamd's defaults.
const (
	streamdQueue    = 256
	streamdLateness = int64(units.MaxTimestampDelaySec)
)

// queueFillLimit bounds the shard queue occupancy of the run's median
// pass at the fixed rate: well under full, so the rate is sustainable.
// One pass may go higher when the host stalls the generator for a moment
// (one series of ten runs at 75 windows/s saw 0.81 once against a typical
// 0.06); that shows in stream.queue_fill_max, and a queue that overflows
// fails the run through its dropped samples.
const queueFillLimit = 0.5

// pollEvery is the open loop's idle step between Health polls.
const pollEvery = 100 * time.Microsecond

// liveSizes states the live-replay inputs.
type liveSizes struct {
	Nodes            int     `json:"nodes"`
	WindowsPerPass   int     `json:"windows_per_pass"`
	FramesPerWindow  int     `json:"frames_per_window"`
	SamplesPerWindow int     `json:"samples_per_window"`
	RateWindowsPerS  float64 `json:"rate_windows_per_s"`
	QueueDepth       int     `json:"queue_depth"`
	CapacityPerS     float64 `json:"capacity_samples_per_s"`
}

// liveWindow is one window of the feed: a pre-encoded frame per 288-node
// fan-in group and the failure events logged in the window.
type liveWindow struct {
	t       int64
	frames  [][]byte // as on the wire: 4-byte length prefix, then payload
	events  []failures.Event
	samples int
}

// liveRef is the batch result each pass must reproduce.
type liveRef struct {
	energyJ float64
	edges   []core.Edge
	bands   []core.BandSummary
}

// liveBench replays a simulated feed through the wire codec into a
// stream.Pipeline configured as cmd/streamd configures it, one fresh
// pipeline per pass, at a fixed rate from one goroutine.
type liveBench struct {
	o      options
	sz     liveSizes
	cfg    sim.Config
	feed   []liveWindow
	ref    liveRef
	counts simCounts
	// fills holds every measured pass's fullest queue occupancy.
	fills []float64
	// unpaced drops the fixed rate and the capacity check; tests use it
	// with a one-batch queue to force an overflow.
	unpaced bool
}

func newLiveBench(o options) bench {
	sz := liveSizes{Nodes: 4608, WindowsPerPass: 72, RateWindowsPerS: liveRate, QueueDepth: streamdQueue}
	if o.tiny {
		sz = liveSizes{Nodes: 576, WindowsPerPass: 60, RateWindowsPerS: liveRate, QueueDepth: streamdQueue}
	}
	// sim.Scaled runs at least 600 s, so a pass has at least 60 windows;
	// setup states the number the feed really has.
	cfg := repro.ScaledConfig(sz.Nodes, time.Duration(sz.WindowsPerPass)*units.CoarsenWindowSec*time.Second)
	cfg.Seed = o.seed
	return &liveBench{o: o, sz: sz, cfg: cfg}
}

func (b *liveBench) sizes() any { return b.sz }

// setups repeats the live set-up five times: one takes about 0.2 s, so a
// scheduler hiccup is a large share of it, and the median of five holds
// steadier than that of three.
func (b *liveBench) setups() int {
	if b.o.tiny {
		return 1
	}
	return 5
}

func (b *liveBench) close() { b.feed = nil }

func (b *liveBench) aliases(p50, p99, _ float64, n int) metricSet {
	m := metricSet{}
	m.set("live_lag_p50_ms", p50, "ms", n)
	m.set("live_lag_p99_ms", p99, "ms", n)
	return m
}

// setup simulates the run and builds the streamd feed from it: input
// power plus six GPU core temperatures per observed node, one frame per
// fan-in group and window, and the failure log per window.
func (b *liveBench) setup(tr *tracer) error {
	b.feed = nil
	group := tr.newGroup()
	root := tr.start("bench.setup", 0, group)
	defer tr.finish(root)
	groups := (b.cfg.Nodes + units.FanInRatio - 1) / units.FanInRatio
	var col *core.Collector
	var feed []liveWindow
	var encErr error
	batches := make([][]telemetry.Sample, groups)
	build := sim.ObserverFunc(func(snap *sim.Snapshot) {
		for g := range batches {
			batches[g] = batches[g][:0]
		}
		for i := range snap.NodeStat {
			if snap.NodeStat[i].Count == 0 {
				continue
			}
			g := i / units.FanInRatio % groups
			batches[g] = append(batches[g], telemetry.Sample{
				Node: topology.NodeID(i), Metric: telemetry.MetricInputPower,
				T: snap.T, Value: snap.NodeStat[i].Mean,
			})
			for s := 0; s < units.GPUsPerNode; s++ {
				if v := snap.GPUCoreTemp[i][s]; !math.IsNaN(v) {
					batches[g] = append(batches[g], telemetry.Sample{
						Node: topology.NodeID(i), Metric: telemetry.GPUCoreTempMetric(topology.GPUSlot(s)),
						T: snap.T, Value: v,
					})
				}
			}
		}
		w := liveWindow{t: snap.T, events: append([]failures.Event(nil), snap.Failures...)}
		for _, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			frame, err := telemetry.EncodeFrame(batch)
			if err != nil && encErr == nil {
				encErr = err
			}
			w.frames = append(w.frames, frame)
			w.samples += len(batch)
		}
		feed = append(feed, w)
	})
	res, err := simulate(b.cfg, tr, root.spanID(), group, func(s *sim.Sim) ([]observer, error) {
		col = core.NewCollector(s, b.cfg)
		return []observer{{spCollector, col}, {"bench.feed", build}}, nil
	})
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	col.SetFailures(res.Failures)
	src := col.Data().Source()
	ref := liveRef{}
	if ref.edges, err = core.EdgesFromSource(src); err != nil {
		return err
	}
	if ref.bands, err = core.ThermalBandsFromSource(src); err != nil {
		return err
	}
	power, err := src.Series(source.SeriesClusterPower)
	if err != nil {
		return err
	}
	// The stream rollup integrates fleet power over observed windows in
	// window order; the batch integral adds the same terms in the same
	// order.
	for _, v := range power.Vals {
		if !math.IsNaN(v) {
			ref.energyJ += v * float64(b.cfg.StepSec)
		}
	}
	b.feed, b.ref, b.counts = feed, ref, countsOf(res)
	b.sz.WindowsPerPass = len(feed)
	b.sz.FramesPerWindow = len(feed[0].frames)
	b.sz.SamplesPerWindow = feed[0].samples
	return nil
}

// capacityPasses is how many queue-paced passes estimate the capacity. A
// host stall only ever lowers a pass's throughput, so the fastest of a
// few is the estimate.
const capacityPasses = 3

// property measures the pipeline's capacity with passes paced only by its
// queues, and requires the fixed rate to stay below it.
func (b *liveBench) property() (string, error) {
	for i := 0; i < capacityPasses; i++ {
		c, err := b.capacityPass()
		if err != nil {
			return "", err
		}
		b.sz.CapacityPerS = max(b.sz.CapacityPerS, c)
	}
	offered := b.sz.RateWindowsPerS * float64(b.sz.SamplesPerWindow)
	if !b.unpaced && offered >= b.sz.CapacityPerS {
		return "", fmt.Errorf("live-replay: fixed rate %.0f samples/s is not below the capacity %.0f samples/s measured at start",
			offered, b.sz.CapacityPerS)
	}
	return fmt.Sprintf("open loop from one goroutine: %d nodes, %.0f windows/s = %.0f samples/s, capacity at start %.0f samples/s (%.2f of it); the run's median pass must keep its queue fill under %.2f",
		b.sz.Nodes, b.sz.RateWindowsPerS, offered, b.sz.CapacityPerS, offered/b.sz.CapacityPerS, queueFillLimit), nil
}

// capacityPass replays the feed as fast as the shard queues drain and
// returns the samples per second it sustained.
func (b *liveBench) capacityPass() (float64, error) {
	pipe, err := b.newPipeline()
	if err != nil {
		return 0, err
	}
	var sent int
	start := time.Now()
	for _, w := range b.feed {
		// Hold each window back while any shard queue is over a quarter
		// full: paced by the queues alone, the pass never drops.
		for queueFill(pipe.Health()) > 0.25 {
			time.Sleep(pollEvery)
		}
		for _, f := range w.frames {
			samples, err := telemetry.DecodeFrame(f[4:])
			if err != nil {
				pipe.Close()
				return 0, err
			}
			pipe.Ingest(samples)
			sent += len(samples)
		}
		if len(w.events) > 0 {
			pipe.IngestEvents(w.events)
		}
	}
	pipe.Close()
	elapsed := time.Since(start)
	if lost := lostSamples(pipe.Health().Ingest); lost != 0 {
		return 0, fmt.Errorf("live-replay: capacity pass lost %d samples", lost)
	}
	return float64(sent) / elapsed.Seconds(), nil
}

func (b *liveBench) newPipeline() (*stream.Pipeline, error) {
	return stream.NewPipeline(stream.Config{
		Nodes:       b.cfg.Nodes,
		StartTime:   b.cfg.StartTime,
		StepSec:     b.cfg.StepSec,
		LatenessSec: streamdLateness,
		QueueDepth:  b.sz.QueueDepth,
	})
}

// queueFill returns the fullest shard queue's occupancy.
func queueFill(h stream.HealthState) float64 {
	var fill float64
	for _, s := range h.Shards {
		if s.QueueCap > 0 {
			fill = max(fill, float64(s.QueueLen)/float64(s.QueueCap))
		}
	}
	return fill
}

func lostSamples(st stream.IngestStats) int64 {
	return st.Dropped + st.Late + st.MergeLate + st.Rejected
}

// livePass is one pass's measurements.
type livePass struct {
	lagsMS, sendLateMS []float64
	sent               int64
	lost               int64
	checks, failed     int // batch parity checks and undecodable frames
	problems           []string
	busy               time.Duration // time spent decoding and ingesting
	elapsed            time.Duration // first due time to Close returning
	closeDrain         time.Duration
	fillMax, lagWinMax float64
	stats              stream.IngestStats
}

// triggers returns, for each window, the index of the first window whose
// timestamps move the pipeline watermark (newest timestamp minus the
// lateness bound) past the window's end, or -1 when no later window does.
func triggers(feed []liveWindow, step int64) []int {
	out := make([]int, len(feed))
	j := 0
	for k := range feed {
		end := feed[k].t + step
		for j < len(feed) && feed[j].t-streamdLateness < end {
			j++
		}
		out[k] = -1
		if j < len(feed) {
			out[k] = j
		}
	}
	return out
}

// pass replays the feed once at the fixed rate into a fresh pipeline.
func (b *liveBench) pass(tr *tracer) (*livePass, error) {
	pipe, err := b.newPipeline()
	if err != nil {
		return nil, err
	}
	out := &livePass{}
	step := b.cfg.StepSec
	trig := triggers(b.feed, step)
	applied := make([]time.Time, len(b.feed))
	next := 0 // first window not yet seen applied
	lastSent := -1
	poll := func() {
		h := pipe.Health()
		now := time.Now()
		for next < len(b.feed) && h.LastWindowT >= b.feed[next].t {
			applied[next] = now
			next++
		}
		fill := queueFill(h)
		out.fillMax = max(out.fillMax, fill)
		if lastSent >= 0 {
			out.lagWinMax = max(out.lagWinMax, float64(b.feed[lastSent].t-h.LastWindowT)/float64(step))
		}
	}
	period := time.Duration(float64(time.Second) / b.sz.RateWindowsPerS)
	start := time.Now()
	due := func(k int) time.Time { return start.Add(time.Duration(k) * period) }
	for k, w := range b.feed {
		if !b.unpaced {
			for time.Now().Before(due(k)) {
				poll()
				if time.Until(due(k)) > pollEvery {
					time.Sleep(pollEvery)
				}
			}
			out.sendLateMS = append(out.sendLateMS, ms(time.Since(due(k))))
		}
		group := tr.newGroup()
		root := tr.start("bench.window", 0, group)
		t0 := time.Now()
		for _, f := range w.frames {
			sp := tr.start("telemetry.DecodeFrame", root.spanID(), group)
			samples, err := telemetry.DecodeFrame(f[4:])
			tr.finish(sp)
			if err != nil {
				out.checks++
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("window %d: %v", k, err))
				continue
			}
			sp = tr.start("stream.Ingest", root.spanID(), group)
			pipe.Ingest(samples)
			tr.finish(sp)
			out.sent += int64(len(samples))
		}
		if len(w.events) > 0 {
			sp := tr.start("stream.IngestEvents", root.spanID(), group)
			pipe.IngestEvents(w.events)
			tr.finish(sp)
		}
		out.busy += time.Since(t0)
		tr.finish(root)
		lastSent = k
		poll()
	}
	// Let the pipeline apply every window the feed has triggered, then
	// close: Close flushes the windows no later batch closes.
	want := 0
	for k := range b.feed {
		if trig[k] >= 0 {
			want = k + 1
		}
	}
	for wait := time.Now().Add(2 * time.Second); next < want && time.Now().Before(wait); {
		time.Sleep(pollEvery)
		poll()
	}
	sp := tr.start("stream.Close", 0, tr.newGroup())
	c0 := time.Now()
	pipe.Close()
	closed := time.Now()
	tr.finish(sp)
	out.closeDrain = closed.Sub(c0)
	out.elapsed = closed.Sub(start)
	for k := range b.feed {
		if trig[k] < 0 || b.unpaced {
			continue
		}
		at := applied[k]
		if at.IsZero() {
			at = closed // never seen applied before Close: the stall counts
		}
		out.lagsMS = append(out.lagsMS, ms(at.Sub(due(trig[k]))))
	}

	snap := pipe.Snapshot()
	out.stats = snap.Ingest
	out.lost = lostSamples(snap.Ingest)
	check := func(ok bool, format string, args ...any) {
		out.checks++
		if !ok {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf(format, args...))
		}
	}
	if out.lost != 0 {
		out.problems = append(out.problems, fmt.Sprintf("pipeline lost %d samples (dropped %d, late %d, merge-late %d, rejected %d)",
			out.lost, snap.Ingest.Dropped, snap.Ingest.Late, snap.Ingest.MergeLate, snap.Ingest.Rejected))
	}
	check(math.Float64bits(snap.Rollup.EnergyJ) == math.Float64bits(b.ref.energyJ),
		"rollup energy %v J, batch %v J", snap.Rollup.EnergyJ, b.ref.energyJ)
	check(bitEqual(snap.Edges, b.ref.edges) || (len(snap.Edges) == 0 && len(b.ref.edges) == 0),
		"edges: stream %d, batch %d", len(snap.Edges), len(b.ref.edges))
	check(bitEqual(snap.Bands.Summary, b.ref.bands), "band summary differs from the batch result")
	return out, nil
}

// checkRun requires the run's median pass to keep every shard queue
// under queueFillLimit at the fixed rate.
func (b *liveBench) checkRun() error {
	if fill := quantile(b.fills, 0.5); !b.unpaced && fill >= queueFillLimit {
		return fmt.Errorf("live-replay: the median pass filled a shard queue to %.2f of capacity at the fixed rate, limit %.2f", fill, queueFillLimit)
	}
	return nil
}

func (b *liveBench) measure(seconds float64, tr *tracer) (*phase, error) {
	ph := &phase{layer: metricSet{}}
	var lags, late []float64
	var busy, elapsed time.Duration
	var delivered, windows int64
	var drains []float64
	var fills []float64
	var lagWinMax float64
	var stats stream.IngestStats
	// Whole passes only: another one starts while it ends nearer to
	// seconds than stopping now would, judged by the length of the last.
	start := time.Now()
	var last time.Duration
	for windows == 0 || (time.Since(start)+last/2).Seconds() < seconds {
		p0 := time.Now()
		p, err := b.pass(tr)
		if err != nil {
			return nil, err
		}
		lags = append(lags, p.lagsMS...)
		late = append(late, p.sendLateMS...)
		busy += p.busy
		elapsed += p.elapsed
		delivered += p.sent - p.lost
		windows += int64(len(b.feed))
		drains = append(drains, ms(p.closeDrain))
		fills = append(fills, p.fillMax)
		b.fills = append(b.fills, p.fillMax)
		lagWinMax = max(lagWinMax, p.lagWinMax)
		ph.attempted += p.sent + int64(p.checks)
		ph.failed += p.lost + int64(p.failed)
		ph.problems = append(ph.problems, p.problems...)
		stats.Frames += p.stats.Frames
		stats.ChannelWindows += p.stats.ChannelWindows
		stats.Dropped += p.stats.Dropped
		stats.Late += p.stats.Late
		stats.MergeLate += p.stats.MergeLate
		stats.Rejected += p.stats.Rejected
		last = time.Since(p0)
	}
	ph.cost = busy.Seconds() / float64(windows)
	ph.latMS, ph.done, ph.elapsed = lags, float64(delivered), elapsed

	if tr != nil {
		m := ph.layer
		st := tr.stats()
		us := func(ds []time.Duration) []float64 {
			out := make([]float64, len(ds))
			for i, d := range ds {
				out[i] = float64(d) / float64(time.Microsecond)
			}
			return out
		}
		dec := us(st.durs["telemetry.DecodeFrame"])
		ing := us(st.durs["stream.Ingest"])
		m.set("telemetry.decode_us_p50", quantile(dec, 0.5), "us", len(dec))
		var frameBytes, frames int
		for _, w := range b.feed {
			for _, f := range w.frames {
				frameBytes += len(f)
				frames++
			}
		}
		m.set("telemetry.frame_bytes_mean", float64(frameBytes)/float64(max(1, frames)), "bytes", frames)
		m.set("stream.ingest_us_p50", quantile(ing, 0.5), "us", len(ing))
		m.set("stream.ingest_us_p99", quantile(ing, 0.99), "us", len(ing))
		m.set("stream.queue_fill_max", quantile(fills, 1), "ratio", int(windows))
		m.set("stream.watermark_lag_windows_max", lagWinMax, "windows", int(windows))
		m.set("stream.frames", float64(stats.Frames), "count", 1)
		m.set("stream.channel_windows", float64(stats.ChannelWindows), "count", 1)
		m.set("stream.dropped", float64(stats.Dropped), "count", 1)
		m.set("stream.late", float64(stats.Late), "count", 1)
		m.set("stream.merge_late", float64(stats.MergeLate), "count", 1)
		m.set("stream.rejected", float64(stats.Rejected), "count", 1)
		m.set("stream.close_drain_ms", quantile(drains, 0.5), "ms", len(drains))
		m.set("bench.send_late_ms_p99", quantile(late, 0.99), "ms", len(late))
		m.set("bench.live_capacity_per_s", b.sz.CapacityPerS, "1/s", 1)
		setSimLayer(m, st, b.cfg.Nodes*b.counts.Windows, b.counts)
	}
	return ph, nil
}
