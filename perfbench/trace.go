package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer.
// Spans live in memory and are written out once the run ends. A nil
// *tracer is the untraced run: every method is a no-op, so the timed code
// paths are the same in both runs apart from the recording itself.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Group is the per-run or per-request id
// that every span of one unit of work shares.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// openSpan is a started span; finish records it.
type openSpan struct {
	id, parent, group int64
	name              string
	start             time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newGroup returns a fresh id to tag one unit of work (a pass, a request,
// a window) with.
func (t *tracer) newGroup() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// start opens a span under parent (0 for a root span).
func (t *tracer) start(name string, parent, group int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	//lint:allow detreach span timing around the benchmark's observers; nothing in the run reads it
	return openSpan{id: t.nextID.Add(1), parent: parent, group: group, name: name, start: time.Now()}
}

// finish records s, ending now.
func (t *tracer) finish(s openSpan) {
	if t == nil {
		return
	}
	//lint:allow detreach span timing around the benchmark's observers; nothing in the run reads it
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: s.parent, Group: s.group, Name: s.name,
		Start: s.start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// spanID returns s's id, the parent for its children (0 when untraced).
func (s openSpan) spanID() int64 { return s.id }

// traceStats is the per-name reduction of a span log.
type traceStats struct {
	count map[string]int
	self  map[string]time.Duration // span time minus child coverage
	durs  map[string][]time.Duration
}

// stats reduces the recorded spans. A span's self time is its duration
// minus the union of its children's intervals clipped to it.
func (t *tracer) stats() traceStats {
	st := traceStats{count: map[string]int{}, self: map[string]time.Duration{}, durs: map[string][]time.Duration{}}
	if t == nil {
		return st
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		st.count[s.Name]++
		st.durs[s.Name] = append(st.durs[s.Name], d)
		st.self[s.Name] += d - time.Duration(coverage(s, children[s.ID]))
	}
	return st
}

// coverage is the length of the union of the children's intervals within
// the parent's.
func coverage(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// byGroup returns the duration of each group's span of the given name.
func (t *tracer) byGroup(name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Group] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// write stores the span log with the run's report header as one JSON
// document.
func (t *tracer) write(path string, header any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace log: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace log: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"run": header, "spans": t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("trace log: %w", err)
	}
	return f.Close()
}
