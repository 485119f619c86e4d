package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/units"
)

// Request kinds, by route.
const (
	kindRange    = "range"
	kindRollup   = "rollup"
	kindAnalysis = "analysis"
)

// serveRequest is one distinct request of a workload's mix.
type serveRequest struct {
	kind string
	path string // path and query string
}

// serveSizes states the serve workloads' inputs.
type serveSizes struct {
	Nodes           int     `json:"nodes"`
	Days            int     `json:"days"`
	CacheMiB        int     `json:"cache_mib"`
	Clients         int     `json:"clients"`
	Distinct        int     `json:"distinct_requests"`
	WorkingSetBytes int64   `json:"working_set_bytes"`
	WorkingSetRatio float64 `json:"working_set_ratio"`
}

// defaultCacheMiB is queryd's -cache-mb default.
const defaultCacheMiB = 256

// archiveSeed simulates the served archive: the archive is the fixed
// dataset being explored, and the workload seed picks what is asked of
// it. Decode cost follows the data's entropy, and on the sweep's 9-node
// floor the job mix of one simulation seed moved the median request by
// ±20 % between seeds, against ±3 % between runs of one seed.
const archiveSeed = 2020

// serveBench serves an archive written through the shipped path
// (Collector + NodeDatasetWriter + WriteDatasets) with query.Open and
// query.NewHandler behind httptest, to a closed loop of clients.
type serveBench struct {
	o     options
	sweep bool
	sz    serveSizes

	builds  int
	dir     string
	nodes   int
	counts  simCounts
	reqs    []serveRequest
	seq     []int        // request order, indexes into reqs, cycled
	next    atomic.Int64 // next position in seq, kept across measured slices
	refs    [][]byte     // reference payload per distinct request
	cache   *store.TableCache
	eng     *query.Engine
	handler http.Handler
}

func newDashboardBench(o options) bench {
	sz := serveSizes{Nodes: 36, Days: 2, CacheMiB: defaultCacheMiB}
	if o.tiny {
		sz = serveSizes{Nodes: 36, Days: 1, CacheMiB: defaultCacheMiB}
	}
	return &serveBench{o: o, sz: sz}
}

func newSweepBench(o options) bench {
	// The budget is queryd's -cache-mb. It is below one decoded day of
	// the per-node dataset, so no partition is admitted and every request
	// decodes, as a walk touching each partition about once would; the
	// touched working set is twenty times the budget. The floor is small
	// because each request decodes a whole day and a run must still issue
	// a thousand requests.
	return &serveBench{o: o, sweep: true, sz: serveSizes{Nodes: 9, Days: 5, CacheMiB: 1}}
}

func (b *serveBench) sizes() any { return b.sz }

// setups repeats the whole serve set-up three times (about 3 s each).
func (b *serveBench) setups() int {
	if b.o.tiny {
		return 1
	}
	return 3
}

func (b *serveBench) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// setup writes the archive, captures the reference bodies from a fresh
// engine and handler, opens the served engine and, on serve-dashboard,
// warms it until the doorkeeper has admitted the working set.
func (b *serveBench) setup(tr *tracer) error {
	b.close()
	b.dir = filepath.Join(b.o.work, fmt.Sprintf("archive-%d", b.builds))
	b.builds++
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	cfg := repro.ScaledConfig(b.sz.Nodes, time.Duration(b.sz.Days)*24*time.Hour)
	cfg.Seed = archiveSeed
	if err := writeArchive(b.dir, cfg, tr, &b.counts); err != nil {
		return err
	}
	b.nodes = cfg.Nodes
	b.sz.Clients = clientCount()

	rng := rand.New(rand.NewSource(int64(b.o.seed)))
	if b.sweep {
		b.reqs, b.seq = sweepMix(rng, cfg)
	} else {
		b.reqs, b.seq = dashboardMix(rng, cfg)
	}
	b.sz.Distinct = len(b.reqs)

	// References come from a separate engine and handler with the default
	// cache, so neither cache admission nor pre-aggregates in the served
	// stack can change a byte unnoticed. Two rounds: the second admits
	// every touched partition, so the reference cache then holds exactly
	// the touched working set.
	refCache := store.NewTableCache(defaultCacheMiB << 20)
	refHandler, _, err := openServed(b.dir, cfg.Nodes, refCache, nil, 0)
	if err != nil {
		return err
	}
	b.refs = make([][]byte, len(b.reqs))
	for round := 0; round < 2; round++ {
		for i, r := range b.reqs {
			body, status := serveLocal(refHandler, r.path)
			if status != http.StatusOK {
				return fmt.Errorf("reference %s: status %d: %s", r.path, status, bytes.TrimSpace(body))
			}
			p := payload(body)
			if round == 1 && !bytes.Equal(p, b.refs[i]) {
				return fmt.Errorf("reference %s: not repeatable", r.path)
			}
			b.refs[i] = append([]byte(nil), p...)
		}
	}
	if refCache.Counters().Evictions != 0 {
		return fmt.Errorf("working set exceeds the %d MiB reference cache", defaultCacheMiB)
	}
	_, b.sz.WorkingSetBytes = refCache.Stats()
	b.sz.WorkingSetRatio = float64(b.sz.WorkingSetBytes) / float64(int64(b.sz.CacheMiB)<<20)

	b.cache = store.NewTableCache(int64(b.sz.CacheMiB) << 20)
	b.handler, b.eng, err = openServed(b.dir, cfg.Nodes, b.cache, tr, tr.newGroup())
	if err != nil {
		return err
	}
	if !b.sweep {
		return b.warm()
	}
	return nil
}

// writeArchive simulates cfg into dir through the shipped path.
func writeArchive(dir string, cfg sim.Config, tr *tracer, counts *simCounts) error {
	group := tr.newGroup()
	root := tr.start("bench.setup", 0, group)
	defer tr.finish(root)
	parent := root.spanID()
	var col *core.Collector
	var nw *core.NodeDatasetWriter
	res, err := simulate(cfg, tr, parent, group, func(s *sim.Sim) ([]observer, error) {
		col = core.NewCollector(s, cfg)
		var err error
		nw, err = core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
		return []observer{{spCollector, col}, {spNodeWriter, nw}}, err
	})
	if err != nil {
		return err
	}
	sp := tr.start(spNodeWriterDone, parent, group)
	err = nw.Close()
	tr.finish(sp)
	if err != nil {
		return err
	}
	col.SetFailures(res.Failures)
	sp = tr.start(spWriteDatasets, parent, group)
	err = core.WriteDatasets(dir, col.Data())
	tr.finish(sp)
	*counts = countsOf(res)
	return err
}

// openServed opens the archive as queryd does: one decoded-table cache
// shared by the analysis source and the query engine.
func openServed(dir string, nodes int, cache *store.TableCache, tr *tracer, group int64) (http.Handler, *query.Engine, error) {
	sp := tr.start(spOpenArchive, 0, group)
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir, Nodes: nodes, Cache: cache})
	tr.finish(sp)
	if err != nil {
		return nil, nil, err
	}
	meta, err := src.Meta()
	if err != nil {
		return nil, nil, err
	}
	eng, err := query.Open(query.Config{Dir: dir, Nodes: nodes, Site: meta.Site, Cache: cache})
	if err != nil {
		return nil, nil, err
	}
	return query.NewHandler(eng, query.ServerConfig{Source: src}), eng, nil
}

// serveLocal runs one request through h without a network.
func serveLocal(h http.Handler, path string) ([]byte, int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes(), rec.Code
}

// payload strips the trailing per-query "stats" object (cache hits,
// elapsed time) that legitimately differs between calls; everything
// before it must match the reference byte for byte.
func payload(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"stats":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// warm repeats the distinct requests until a whole round causes no cache
// miss: every partition the mix touches has been admitted.
func (b *serveBench) warm() error {
	for round := 0; round < 8; round++ {
		before := b.cache.Counters().Misses
		for i, r := range b.reqs {
			body, status := serveLocal(b.handler, r.path)
			if status != http.StatusOK || !bytes.Equal(payload(body), b.refs[i]) {
				return fmt.Errorf("warm-up %s: status %d or body differs from the reference", r.path, status)
			}
		}
		if round > 0 && b.cache.Counters().Misses == before {
			return nil
		}
	}
	return fmt.Errorf("warm-up: cache still missing after 8 rounds")
}

func (b *serveBench) property() (string, error) {
	r := b.sz.WorkingSetRatio
	if b.sweep {
		if r < 4 {
			return "", fmt.Errorf("serve-sweep: working set / cache budget = %.2f, want >= 4", r)
		}
		return fmt.Sprintf("closed loop, %d clients; working set %.1f MiB / cache %d MiB = %.2f >= 4; off-grid steps, pre-aggregates must answer nothing",
			clientCount(), float64(b.sz.WorkingSetBytes)/(1<<20), b.sz.CacheMiB, r), nil
	}
	if r >= 1 {
		return "", fmt.Errorf("serve-dashboard: working set / cache budget = %.2f, want < 1", r)
	}
	return fmt.Sprintf("closed loop, %d clients; working set %.1f MiB / cache %d MiB = %.3f < 1; warmed until admitted",
		clientCount(), float64(b.sz.WorkingSetBytes)/(1<<20), b.sz.CacheMiB, r), nil
}

// clientCount is the closed loop's width: two clients, never more than
// GOMAXPROCS.
func clientCount() int { return min(2, runtime.GOMAXPROCS(0)) }

// dayStart returns the start of simulated day d of cfg.
func dayStart(cfg sim.Config, d int) int64 { return cfg.StartTime + int64(d)*86400 }

func rangePath(node int, t0, t1, step int64) string {
	q := url.Values{}
	q.Set("dataset", core.DatasetNodePower)
	q.Set("column", "input_power.mean")
	if node >= 0 {
		q.Set("node", strconv.Itoa(node))
	}
	q.Set("t0", strconv.FormatInt(t0, 10))
	q.Set("t1", strconv.FormatInt(t1, 10))
	if step > 0 {
		q.Set("step", strconv.FormatInt(step, 10))
	}
	return "/api/v1/range?" + q.Encode()
}

func rollupPath(group string, t0, t1, step int64) string {
	q := url.Values{}
	q.Set("dataset", core.DatasetNodePower)
	q.Set("column", "input_power.mean")
	q.Set("group", group)
	q.Set("t0", strconv.FormatInt(t0, 10))
	q.Set("t1", strconv.FormatInt(t1, 10))
	q.Set("step", strconv.FormatInt(step, 10))
	return "/api/v1/rollup?" + q.Encode()
}

// dashboardMix is the panels an operator keeps open over the newest day,
// re-issued in fixed proportions (per hundred requests): the landing
// panel, fleet power over the last 6 h downsampled to 600 s from the
// per-node data, 30; cabinet, MSB and fleet rollups on the 600 s
// pre-aggregate grid 18; raw per-node ranges over hours 8; the hourly
// 6 h fleet downsample 6; whole-day fleet downsamples 24; the summary and
// edges analyses 14. The landing panel sits in the middle of the latency
// order, so the median measures one request kind rather than the edge
// between two, and it takes milliseconds, so scheduler wake-ups on a busy
// host move it less than they move sub-millisecond requests; the tail is
// the whole-day downsample. The seed picks the raw ranges and shuffles
// each block of a hundred.
func dashboardMix(rng *rand.Rand, cfg sim.Config) ([]serveRequest, []int) {
	days := int(cfg.DurationSec / 86400)
	end := dayStart(cfg, days)
	var reqs []serveRequest
	var weights []int
	add := func(r serveRequest, w int) {
		reqs = append(reqs, r)
		weights = append(weights, w)
	}
	for _, g := range []string{"cabinet", "msb", "fleet"} {
		for _, h := range []int64{1, 6, 24} {
			add(serveRequest{kindRollup, rollupPath(g, end-h*units.SecondsPerHour, end, 600)}, 2)
		}
	}
	for i := 0; i < 8; i++ {
		node := rng.Intn(cfg.Nodes)
		hours := int64(1 + rng.Intn(4))
		t1 := end - int64(rng.Intn(int(24-hours)))*units.SecondsPerHour
		add(serveRequest{kindRange, rangePath(node, t1-hours*units.SecondsPerHour, t1, 0)}, 1)
	}
	add(serveRequest{kindRange, rangePath(-1, end-6*units.SecondsPerHour, end, 600)}, 30)
	add(serveRequest{kindRange, rangePath(-1, end-6*units.SecondsPerHour, end, units.SecondsPerHour)}, 6)
	for _, step := range []int64{600, units.SecondsPerHour} {
		add(serveRequest{kindRange, rangePath(-1, end-24*units.SecondsPerHour, end, step)}, 12)
	}
	add(serveRequest{kindAnalysis, "/api/v1/analysis/summary"}, 11)
	add(serveRequest{kindAnalysis, "/api/v1/analysis/edges"}, 3)
	var block []int
	for i, w := range weights {
		for j := 0; j < w; j++ {
			block = append(block, i)
		}
	}
	var seq []int
	for len(seq) < 8192 {
		for _, k := range rng.Perm(len(block)) {
			seq = append(seq, block[k])
		}
	}
	return reqs, seq
}

// sweepStep is off the 600 s pre-aggregate grid, so rollups scan.
const sweepStep = 1800

// sweepMix walks every day × node, with a raw range over a seeded 4 h
// slice and a whole-day downsample at an off-grid step each, plus each
// day's cabinet, MSB and fleet rollups at that step. The order is a fresh
// seeded permutation on every cycle, so which requests happen to follow
// one on the same day — a cache hit — averages out over a run.
func sweepMix(rng *rand.Rand, cfg sim.Config) ([]serveRequest, []int) {
	days := int(cfg.DurationSec / 86400)
	var reqs []serveRequest
	for d := 0; d < days; d++ {
		t0, t1 := dayStart(cfg, d), dayStart(cfg, d+1)
		for n := 0; n < cfg.Nodes; n++ {
			s := t0 + int64(rng.Intn(20))*units.SecondsPerHour
			reqs = append(reqs,
				serveRequest{kindRange, rangePath(n, s, s+4*units.SecondsPerHour, 0)},
				serveRequest{kindRange, rangePath(n, t0, t1, sweepStep)})
		}
		for _, g := range []string{"cabinet", "msb", "fleet"} {
			reqs = append(reqs, serveRequest{kindRollup, rollupPath(g, t0, t1, sweepStep)})
		}
	}
	var seq []int
	for len(seq) < 8192 {
		seq = append(seq, rng.Perm(len(reqs))...)
	}
	return reqs, seq
}

// engineCounters is a snapshot of the engine's public counters.
type engineCounters struct {
	rollups, preagg, hits, misses, evictions, iter, daysScanned, daysPruned,
	rows, decoded, rejected, errors int64
}

func readEngine(e *query.Engine) engineCounters {
	m := e.Metrics()
	return engineCounters{
		rollups: m.RollupQueries.Load(), preagg: m.PreaggQueries.Load(),
		hits: m.CacheHits.Load(), misses: m.CacheMisses.Load(), evictions: m.CacheEvictions.Load(),
		iter: m.IterScans.Load(), daysScanned: m.DaysScanned.Load(), daysPruned: m.DaysPruned.Load(),
		rows: m.RowsScanned.Load(), decoded: m.BytesDecoded.Load(),
		rejected: m.Rejected.Load(), errors: m.Errors.Load(),
	}
}

// Headers tying the server-side span of a request to its client span.
const (
	hdrGroup  = "X-Perfbench-Group"
	hdrParent = "X-Perfbench-Span"
)

const spHandler = "query.http.handler"

// spanHandler records the server-side time of each request.
type spanHandler struct {
	h  http.Handler
	tr *tracer
}

func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	group, _ := strconv.ParseInt(r.Header.Get(hdrGroup), 10, 64)   // absent: 0
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64) // absent: 0
	sp := s.tr.start(spHandler, parent, group)
	s.h.ServeHTTP(w, r)
	s.tr.finish(sp)
}

// sample is one completed request.
type sample struct {
	req   int
	group int64
	rtt   time.Duration
	bytes int
	ok    bool
	why   string
}

func (b *serveBench) measure(seconds float64, tr *tracer) (*phase, error) {
	var h http.Handler = b.handler
	if tr != nil {
		h = spanHandler{h: b.handler, tr: tr}
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c0 := readEngine(b.eng)

	clients := clientCount()
	results := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			for time.Now().Before(deadline) {
				i := b.seq[int(b.next.Add(1)-1)%len(b.seq)]
				results[c] = append(results[c], b.do(client, srv.URL, i, tr))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	c1 := readEngine(b.eng)

	ph := &phase{layer: metricSet{}}
	var rtts []float64
	var bodyBytes, okCount int64
	var all []sample
	for _, rs := range results {
		all = append(all, rs...)
	}
	for _, s := range all {
		ph.attempted++
		rtts = append(rtts, ms(s.rtt))
		bodyBytes += int64(s.bytes)
		if s.ok {
			okCount++
			continue
		}
		ph.failed++
		if len(ph.problems) < 20 {
			ph.problems = append(ph.problems, fmt.Sprintf("%s: %s", b.reqs[s.req].path, s.why))
		}
	}
	if b.sweep && c1.preagg != c0.preagg {
		return nil, fmt.Errorf("serve-sweep: %d rollups answered from pre-aggregates, want 0", c1.preagg-c0.preagg)
	}
	ph.cost = mean(rtts) / msPerSecond
	ph.latMS, ph.done, ph.elapsed = rtts, float64(okCount), elapsed

	if tr != nil {
		b.layerMetrics(ph.layer, tr, all, c0, c1, bodyBytes)
	}
	return ph, nil
}

func (b *serveBench) aliases(p50, p99, rate float64, n int) metricSet {
	m := metricSet{}
	m.set("query_p50_ms", p50, "ms", n)
	m.set("query_p99_ms", p99, "ms", n)
	m.set("queries_per_s", rate, "1/s", n)
	return m
}

// do issues request i and checks its status and body.
func (b *serveBench) do(client *http.Client, base string, i int, tr *tracer) sample {
	s := sample{req: i, group: tr.newGroup()}
	hreq, err := http.NewRequest(http.MethodGet, base+b.reqs[i].path, nil)
	if err != nil {
		s.why = err.Error()
		return s
	}
	sp := tr.start("bench.request", 0, s.group)
	if tr != nil {
		hreq.Header.Set(hdrGroup, strconv.FormatInt(s.group, 10))
		hreq.Header.Set(hdrParent, strconv.FormatInt(sp.spanID(), 10))
	}
	t0 := time.Now()
	resp, err := client.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.rtt = time.Since(t0)
	tr.finish(sp)
	switch {
	case err != nil:
		s.why = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.why = fmt.Sprintf("status %d", resp.StatusCode)
	case !bytes.Equal(payload(body), b.refs[i]):
		s.why = "body differs from the reference"
	default:
		s.ok = true
	}
	s.bytes = len(body)
	return s
}

// layerMetrics reduces the traced requests and engine counters.
func (b *serveBench) layerMetrics(m metricSet, tr *tracer, all []sample, c0, c1 engineCounters, bodyBytes int64) {
	handler := tr.byGroup(spHandler)
	var hAll, transport []float64
	byKind := map[string][]float64{}
	var handlerTotal time.Duration
	for _, s := range all {
		d, ok := handler[s.group]
		if !ok {
			continue
		}
		handlerTotal += d
		hAll = append(hAll, ms(d))
		transport = append(transport, ms(s.rtt-d))
		k := b.reqs[s.req].kind
		byKind[k] = append(byKind[k], ms(d))
	}
	n := len(hAll)
	m.set("query.http.handler_ms_p50", quantile(hAll, 0.5), "ms", n)
	m.set("query.http.handler_ms_p99", quantile(hAll, 0.99), "ms", n)
	m.set("query.http.transport_ms_p50", quantile(transport, 0.5), "ms", n)
	m.set("query.range_ms_p50", quantile(byKind[kindRange], 0.5), "ms", len(byKind[kindRange]))
	m.set("query.rollup_ms_p50", quantile(byKind[kindRollup], 0.5), "ms", len(byKind[kindRollup]))
	m.set("query.analysis_ms_p50", quantile(byKind[kindAnalysis], 0.5), "ms", len(byKind[kindAnalysis]))
	m.set("query.analysis_ms_p99", quantile(byKind[kindAnalysis], 0.99), "ms", len(byKind[kindAnalysis]))
	m.set("query.response_bytes_mean", float64(bodyBytes)/float64(max(1, len(all))), "bytes", len(all))

	d := func(a, b int64) float64 { return float64(b - a) }
	m.set("query.cache_hits", d(c0.hits, c1.hits), "count", 1)
	m.set("query.cache_misses", d(c0.misses, c1.misses), "count", 1)
	m.set("query.cache_evictions", d(c0.evictions, c1.evictions), "count", 1)
	if lookups := d(c0.hits, c1.hits) + d(c0.misses, c1.misses); lookups > 0 {
		m.set("query.cache_hit_ratio", d(c0.hits, c1.hits)/lookups, "ratio", int(lookups))
	}
	if rollups := d(c0.rollups, c1.rollups); rollups > 0 {
		m.set("query.preagg_ratio", d(c0.preagg, c1.preagg)/rollups, "ratio", int(rollups))
	}
	m.set("query.iter_scans", d(c0.iter, c1.iter), "count", 1)
	m.set("query.days_scanned", d(c0.daysScanned, c1.daysScanned), "count", 1)
	m.set("query.days_pruned", d(c0.daysPruned, c1.daysPruned), "count", 1)
	m.set("query.rows_scanned", d(c0.rows, c1.rows), "count", 1)
	m.set("query.bytes_decoded", d(c0.decoded, c1.decoded), "bytes", 1)
	if handlerTotal > 0 {
		m.set("query.decode_mb_per_s", d(c0.decoded, c1.decoded)/bytesPerMB/handlerTotal.Seconds(), "MB/s", n)
	}
	m.set("query.working_set_ratio", b.sz.WorkingSetRatio, "ratio", 1)
	m.set("query.rejected", d(c0.rejected, c1.rejected), "count", 1)
	m.set("query.errors", d(c0.errors, c1.errors), "count", 1)
	setSimLayer(m, tr.stats(), b.nodes*b.counts.Windows, b.counts)
}
