package source

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topology"
)

// keyedRollup is the reference reducer: one map entry per (kind, group,
// window), rows folded in arrival order, emitted sorted by (window, kind,
// group). RollupReducer must match it bit for bit.
func keyedRollup(floor *topology.Floor, cols []string, ts, nodes []int64, vals [][]float64) *store.Table {
	type key struct{ window, kind, group int64 }
	acc := map[key][]stats.Moments{}
	fold := func(k key, v []float64) {
		ms, ok := acc[k]
		if !ok {
			ms = make([]stats.Moments, len(cols))
			acc[k] = ms
		}
		for i, x := range v {
			ms[i].Add(x)
		}
	}
	for r := range ts {
		w := ts[r] - floorMod(ts[r], RollupStepSec)
		if floor != nil {
			id := topology.NodeID(nodes[r])
			fold(key{w, RollupKindCabinet, int64(floor.Cabinet(id))}, vals[r])
			fold(key{w, RollupKindMSB, int64(floor.MSBOf(id))}, vals[r])
		}
		fold(key{w, RollupKindFleet, 0}, vals[r])
	}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.window != b.window {
			return a.window < b.window
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.group < b.group
	})
	tab := &store.Table{Cols: []store.Column{
		{Name: RollupColWindow, Ints: []int64{}}, {Name: RollupColKind, Ints: []int64{}},
		{Name: RollupColGroup, Ints: []int64{}}, {Name: RollupColStep, Ints: []int64{}},
	}}
	for _, name := range cols {
		n, mn, mx, mean, m2 := RollupStatCols(name)
		tab.Cols = append(tab.Cols, store.Column{Name: n, Ints: []int64{}},
			store.Column{Name: mn, Floats: []float64{}}, store.Column{Name: mx, Floats: []float64{}},
			store.Column{Name: mean, Floats: []float64{}}, store.Column{Name: m2, Floats: []float64{}})
	}
	for _, k := range keys {
		for i, v := range []int64{k.window, k.kind, k.group, RollupStepSec} {
			tab.Cols[i].Ints = append(tab.Cols[i].Ints, v)
		}
		for c, m := range acc[k] {
			cnt, mn, mx, mean, m2 := m.State()
			base := 4 + 5*c
			tab.Cols[base].Ints = append(tab.Cols[base].Ints, cnt)
			for j, v := range []float64{mn, mx, mean, m2} {
				tab.Cols[base+1+j].Floats = append(tab.Cols[base+1+j].Floats, v)
			}
		}
	}
	return tab
}

// TestRollupReducerMatchesKeyedReference pins the dense-slot reducer to the
// keyed reference at tolerance 0: rows in time order (the writer's case),
// rows revisiting earlier windows, a nil floor, and no value columns.
func TestRollupReducerMatchesKeyedReference(t *testing.T) {
	tcfg, err := topology.PresetScaled("", 100)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"a", "b"}
	var inOrder, shuffled []int
	var ts, nodes []int64
	var vals [][]float64
	for w := int64(0); w < 40; w++ {
		for n := int64(0); n < 100; n += 3 {
			inOrder = append(inOrder, len(ts))
			ts = append(ts, 1_600_000_000+w*150)
			nodes = append(nodes, n)
			x := float64(w*100+n) * 1.37
			vals = append(vals, []float64{x, math.Sin(x)})
		}
	}
	for i := range inOrder {
		shuffled = append(shuffled, inOrder[(i*7919)%len(inOrder)])
	}
	cases := []struct {
		name  string
		floor *topology.Floor
		cols  []string
		order []int
	}{
		{"time order", floor, cols, inOrder},
		{"windows revisited", floor, cols, shuffled},
		{"fleet only", nil, cols, shuffled},
		{"no value columns", floor, nil, inOrder},
	}
	for _, tc := range cases {
		red := NewRollupReducer(tc.floor, tc.cols)
		var rts, rnodes []int64
		var rvals [][]float64
		for _, r := range tc.order {
			v := vals[r][:len(tc.cols)]
			if err := red.Add(ts[r], nodes[r], v); err != nil {
				t.Fatal(err)
			}
			rts, rnodes, rvals = append(rts, ts[r]), append(rnodes, nodes[r]), append(rvals, v)
		}
		got, want := red.Table(), keyedRollup(tc.floor, tc.cols, rts, rnodes, rvals)
		if len(got.Cols) != len(want.Cols) || got.NumRows() != want.NumRows() || got.NumRows() == 0 {
			t.Fatalf("%s: shape %dx%d, want %dx%d", tc.name, len(got.Cols), got.NumRows(), len(want.Cols), want.NumRows())
		}
		for i := range want.Cols {
			g, w := &got.Cols[i], &want.Cols[i]
			if g.Name != w.Name || g.IsInt() != w.IsInt() {
				t.Fatalf("%s: column %d is %q, want %q", tc.name, i, g.Name, w.Name)
			}
			for r := range w.Ints {
				if g.Ints[r] != w.Ints[r] {
					t.Fatalf("%s: %s row %d: %d != %d", tc.name, w.Name, r, g.Ints[r], w.Ints[r])
				}
			}
			for r := range w.Floats {
				if math.Float64bits(g.Floats[r]) != math.Float64bits(w.Floats[r]) {
					t.Fatalf("%s: %s row %d: %v != %v", tc.name, w.Name, r, g.Floats[r], w.Floats[r])
				}
			}
		}
	}
	if err := NewRollupReducer(floor, cols).Add(0, 100, []float64{1, 2}); err == nil {
		t.Error("node outside the floor accepted")
	}
}
