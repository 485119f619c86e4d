package source

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topology"
)

// Rollup pre-aggregates: every per-node dataset can carry a companion
// "<base>.rollup" dataset persisting, per coarse window, the exact Welford
// accumulator state of every float column for every cabinet, every main
// switchboard, and the fleet. The query tier answers aligned rollups from
// these rows without touching a single per-node row — and because the
// accumulator state round-trips bitwise (stats.Moments.State /
// MomentsFromState) and the reducer folds rows in the same order the scan
// path would, the answers are bit-identical to a full scan.
const (
	// RollupSuffix appended to a base dataset name names its pre-aggregate
	// companion.
	RollupSuffix = ".rollup"
	// RollupStepSec is the pre-aggregation window. 600 s divides the daily
	// partition span, so no window ever straddles two partitions of a
	// day-aligned archive.
	RollupStepSec int64 = 600
)

// Rollup grouping kinds, stored in the kind column. They mirror the query
// tier's cabinet/MSB/fleet groupings.
const (
	RollupKindCabinet int64 = 0
	RollupKindMSB     int64 = 1
	RollupKindFleet   int64 = 2
)

// Rollup axis columns.
const (
	RollupColWindow = "window"   // window start time (seconds)
	RollupColKind   = "kind"     // RollupKind* discriminator
	RollupColGroup  = "group"    // cabinet index, MSB index, or 0 for fleet
	RollupColStep   = "step_sec" // window size the row was aggregated at
)

// RollupDatasetName names the pre-aggregate companion of a base dataset.
func RollupDatasetName(base string) string { return base + RollupSuffix }

// RollupStatCols returns the five persisted per-column stat names: count,
// min, max, running mean, and the Welford second moment M2.
func RollupStatCols(col string) (n, mn, mx, mean, m2 string) {
	return col + ".n", col + ".min", col + ".max", col + ".mean", col + ".m2"
}

// RollupReducer folds per-node rows into the pre-aggregate accumulators of
// one partition. Feed it every row of the day table in file order — each
// (kind, group, window) accumulator then receives exactly the Add sequence
// the query tier's scan path would produce, which is what makes answering
// from pre-aggregates bit-exact. Not safe for concurrent use.
//
// Accumulators live in dense per-window slot arrays: the floor's cabinets,
// then its switchboards, then the fleet, so a row costs three indexed adds
// instead of three map lookups. Rows arrive in time order, so the window of
// the previous row is kept at hand; rows out of order still land in their
// own window.
type RollupReducer struct {
	floor *topology.Floor
	cols  []string
	// cabSlot and msbSlot map a node to its cabinet and switchboard slot.
	cabSlot, msbSlot []int32
	slots            int // slots per window; the fleet is the last
	windows          map[int64]*rollupWindow
	last             *rollupWindow
}

// rollupWindow holds one window's accumulators, len(cols) per slot.
type rollupWindow struct {
	start int64
	acc   []stats.Moments
	seen  []bool // the slot received at least one row
}

// NewRollupReducer builds a reducer over the named value columns. floor maps
// nodes to cabinets and switchboards; nil restricts the reduction to the
// fleet kind.
func NewRollupReducer(floor *topology.Floor, cols []string) *RollupReducer {
	r := &RollupReducer{
		floor:   floor,
		cols:    cols,
		slots:   1,
		windows: make(map[int64]*rollupWindow),
	}
	if floor != nil {
		cabs := floor.Cabinets()
		r.cabSlot = make([]int32, floor.Nodes())
		r.msbSlot = make([]int32, floor.Nodes())
		for n := range r.cabSlot {
			id := topology.NodeID(n)
			r.cabSlot[n] = int32(floor.Cabinet(id))
			r.msbSlot[n] = int32(cabs + int(floor.MSBOf(id)))
		}
		r.slots = cabs + floor.MSBs() + 1
	}
	return r
}

// Add folds one row — its timestamp, node, and one value per configured
// column — into the cabinet, MSB and fleet accumulators of its window.
//
//lint:detroot
func (r *RollupReducer) Add(t, node int64, vals []float64) error {
	if len(vals) != len(r.cols) {
		return fmt.Errorf("source: rollup row has %d values, want %d", len(vals), len(r.cols))
	}
	if r.floor != nil && (node < 0 || int(node) >= r.floor.Nodes()) {
		return fmt.Errorf("source: rollup: node %d outside the %d-node floor",
			node, r.floor.Nodes())
	}
	w := t - floorMod(t, RollupStepSec)
	win := r.last
	if win == nil || win.start != w {
		win = r.window(w)
	}
	if r.floor != nil {
		win.fold(int(r.cabSlot[node]), vals)
		win.fold(int(r.msbSlot[node]), vals)
	}
	win.fold(r.slots-1, vals)
	return nil
}

// window returns the accumulators of the window starting at w, creating
// them on first use, and keeps them at hand for the next row.
func (r *RollupReducer) window(w int64) *rollupWindow {
	win, ok := r.windows[w]
	if !ok {
		win = &rollupWindow{
			start: w,
			acc:   make([]stats.Moments, r.slots*len(r.cols)),
			seen:  make([]bool, r.slots),
		}
		r.windows[w] = win
	}
	r.last = win
	return win
}

// fold adds one row's values into a single slot.
//
//lint:detroot
func (win *rollupWindow) fold(slot int, vals []float64) {
	win.seen[slot] = true
	ms := win.acc[slot*len(vals) : (slot+1)*len(vals)]
	for i, v := range vals {
		ms[i].Add(v)
	}
}

// kindGroup names the (kind, group) a slot accumulates.
func (r *RollupReducer) kindGroup(slot int) (kind, group int64) {
	if slot == r.slots-1 {
		return RollupKindFleet, 0
	}
	if cabs := r.floor.Cabinets(); slot >= cabs {
		return RollupKindMSB, int64(slot - cabs)
	}
	return RollupKindCabinet, int64(slot)
}

// Table renders the accumulated pre-aggregates as one partition table, rows
// sorted by (window, kind, group) — windows in time order, and within one
// the slot order, which is already (kind, group) order — so the emission
// order never depends on map iteration.
//
//lint:detroot
func (r *RollupReducer) Table() *store.Table {
	wins := make([]*rollupWindow, 0, len(r.windows))
	n := 0
	for _, win := range r.windows {
		wins = append(wins, win)
		for _, seen := range win.seen {
			if seen {
				n++
			}
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].start < wins[j].start })
	window := make([]int64, 0, n)
	kind := make([]int64, 0, n)
	group := make([]int64, 0, n)
	step := make([]int64, 0, n)
	type statCols struct {
		n                []int64
		mn, mx, mean, m2 []float64
	}
	per := make([]statCols, len(r.cols))
	for c := range per {
		per[c] = statCols{
			n: make([]int64, 0, n), mn: make([]float64, 0, n), mx: make([]float64, 0, n),
			mean: make([]float64, 0, n), m2: make([]float64, 0, n),
		}
	}
	for _, win := range wins {
		for slot, seen := range win.seen {
			if !seen {
				continue
			}
			k, g := r.kindGroup(slot)
			window = append(window, win.start)
			kind = append(kind, k)
			group = append(group, g)
			step = append(step, RollupStepSec)
			for c := range r.cols {
				cnt, mn, mx, mean, m2 := win.acc[slot*len(r.cols)+c].State()
				p := &per[c]
				p.n, p.mn, p.mx = append(p.n, cnt), append(p.mn, mn), append(p.mx, mx)
				p.mean, p.m2 = append(p.mean, mean), append(p.m2, m2)
			}
		}
	}
	cols := []store.Column{
		{Name: RollupColWindow, Ints: window},
		{Name: RollupColKind, Ints: kind},
		{Name: RollupColGroup, Ints: group},
		{Name: RollupColStep, Ints: step},
	}
	for c, name := range r.cols {
		cn, cmn, cmx, cmean, cm2 := RollupStatCols(name)
		cols = append(cols,
			store.Column{Name: cn, Ints: per[c].n},
			store.Column{Name: cmn, Floats: per[c].mn},
			store.Column{Name: cmx, Floats: per[c].mx},
			store.Column{Name: cmean, Floats: per[c].mean},
			store.Column{Name: cm2, Floats: per[c].m2},
		)
	}
	return &store.Table{Cols: cols}
}

// floorMod is the non-negative remainder, aligning negative timestamps to
// the window below them (mirrors the query tier's window alignment).
func floorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
