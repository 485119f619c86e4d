package store

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// blockTestTable builds a node-dataset-shaped table whose encoded stream is
// roughly 25 bytes per row, so 100,000 rows span several default-size
// blocks.
func blockTestTable(rows int) *Table {
	ts := make([]int64, rows)
	node := make([]int64, rows)
	count := make([]int64, rows)
	mean := make([]float64, rows)
	maxv := make([]float64, rows)
	std := make([]float64, rows)
	h := uint64(0x9e3779b97f4a7c15)
	for i := range ts {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		noise := float64(h%1000) / 1000
		ts[i] = 1_577_836_800 + int64(i/64)*10
		node[i] = int64(i % 64)
		count[i] = 10 - int64(h%3)
		mean[i] = 1500 + 400*math.Sin(float64(i)/250) + noise
		maxv[i] = mean[i] + 50*noise
		std[i] = 20 * noise
	}
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts},
		{Name: "node", Ints: node},
		{Name: "input_power.count", Ints: count},
		{Name: "input_power.mean", Floats: mean},
		{Name: "input_power.max", Floats: maxv},
		{Name: "input_power.std", Floats: std},
	}}
}

// gzipMembers splits a concatenated gzip stream at its member boundaries,
// returning the end offset of every member and the decompressed stream.
func gzipMembers(t *testing.T, data []byte) (ends []int, raw []byte) {
	t.Helper()
	br := bytes.NewReader(data)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for {
		zr.Multistream(false)
		if _, err := io.Copy(&out, zr); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(data)-br.Len())
		if err := zr.Reset(br); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	return ends, out.Bytes()
}

// singleMember compresses raw as one gzip member, the way every partition
// was written before block-parallel compression: one gzip.Writer at the
// codec's level, fed through a 4 KiB buffer.
func singleMember(t *testing.T, raw []byte, codec Codec) []byte {
	t.Helper()
	var out bytes.Buffer
	zw, err := gzip.NewWriterLevel(&out, codec.gzipLevel())
	if err != nil {
		t.Fatal(err)
	}
	for p := raw; len(p) > 0; {
		k := min(len(p), 4096)
		if _, err := zw.Write(p[:k]); err != nil {
			t.Fatal(err)
		}
		p = p[k:]
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func requireTablesEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) || got.NumRows() != want.NumRows() {
		t.Fatalf("shape %dx%d, want %dx%d", len(got.Cols), got.NumRows(), len(want.Cols), want.NumRows())
	}
	for i := range want.Cols {
		w, g := &want.Cols[i], &got.Cols[i]
		if w.Name != g.Name || w.IsInt() != g.IsInt() || w.IsStr() != g.IsStr() {
			t.Fatalf("column %d: %q, want %q", i, g.Name, w.Name)
		}
		for r := 0; r < w.Len(); r++ {
			switch {
			case w.IsInt():
				if g.Ints[r] != w.Ints[r] {
					t.Fatalf("column %q row %d: %d != %d", w.Name, r, g.Ints[r], w.Ints[r])
				}
			case w.IsStr():
				if g.Strs[r] != w.Strs[r] {
					t.Fatalf("column %q row %d: %q != %q", w.Name, r, g.Strs[r], w.Strs[r])
				}
			default:
				if math.Float64bits(g.Floats[r]) != math.Float64bits(w.Floats[r]) {
					t.Fatalf("column %q row %d: %v != %v", w.Name, r, g.Floats[r], w.Floats[r])
				}
			}
		}
	}
}

// TestWriteCodecDeterministicAcrossGOMAXPROCS pins the determinism rule: the
// block cut depends only on byte offsets, so a file is byte-identical at
// any worker count. Every codec is written at a small block size (many
// members, many blocks in flight); the default block size is checked on the
// store-mode codec, which skips deflate so the multi-MiB table stays cheap
// under the race detector.
func TestWriteCodecDeterministicAcrossGOMAXPROCS(t *testing.T) {
	small, large := blockTestTable(2_000), blockTestTable(50_000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	refs := map[Codec][]byte{}
	var largeRef []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for codec := Codec(0); codec < numCodecs; codec++ {
			var buf bytes.Buffer
			if err := writeBlocks(&buf, small, codec, 4<<10, runtime.GOMAXPROCS(0)); err != nil {
				t.Fatal(err)
			}
			ref, ok := refs[codec]
			if !ok {
				refs[codec] = buf.Bytes()
				ends, raw := gzipMembers(t, buf.Bytes())
				if len(ends) != (len(raw)+4<<10-1)/(4<<10) {
					t.Fatalf("codec %d: %d members for a %d-byte stream", codec, len(ends), len(raw))
				}
				got, err := Read(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("codec %d: %v", codec, err)
				}
				requireTablesEqual(t, got, small)
				continue
			}
			if !bytes.Equal(buf.Bytes(), ref) {
				t.Fatalf("codec %d, GOMAXPROCS=%d: bytes differ from GOMAXPROCS=1", codec, procs)
			}
		}
		var buf bytes.Buffer
		if err := WriteCodec(&buf, large, CodecRawStore); err != nil {
			t.Fatal(err)
		}
		if largeRef == nil {
			largeRef = buf.Bytes()
			if ends, raw := gzipMembers(t, largeRef); len(ends) < 2 || len(ends) != (len(raw)+blockSize-1)/blockSize {
				t.Fatalf("%d members for a %d-byte stream, want ceil(n/%d) >= 2", len(ends), len(raw), blockSize)
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), largeRef) {
			t.Fatalf("GOMAXPROCS=%d: %d bytes differ from the GOMAXPROCS=1 file (%d bytes)", procs, buf.Len(), len(largeRef))
		}
	}
}

// TestSubBlockTableIsOneMember: a table under one block is written exactly
// as a single gzip.Writer member at the codec's level — the format every
// earlier build produced.
func TestSubBlockTableIsOneMember(t *testing.T) {
	tab := sampleTable()
	for codec := Codec(0); codec < numCodecs; codec++ {
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, codec); err != nil {
			t.Fatal(err)
		}
		ends, raw := gzipMembers(t, buf.Bytes())
		if len(ends) != 1 {
			t.Fatalf("codec %d: %d members, want 1", codec, len(ends))
		}
		if want := singleMember(t, raw, codec); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("codec %d: %d bytes, a single gzip member is %d bytes", codec, buf.Len(), len(want))
		}
	}
}

// TestSingleMemberPartitionReadsBack: a multi-block table re-compressed as
// one member (a partition written before block-parallel compression) reads
// back exactly through every read path.
func TestSingleMemberPartitionReadsBack(t *testing.T) {
	tab := blockTestTable(2_000)
	var buf bytes.Buffer
	if err := writeBlocks(&buf, tab, CodecDelta, 4<<10, 2); err != nil {
		t.Fatal(err)
	}
	_, raw := gzipMembers(t, buf.Bytes())
	ds, err := NewDataset(t.TempDir(), "node-power")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ds.dayPath(0), singleMember(t, raw, CodecDelta), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ds.ReadDay(0)
	if err != nil {
		t.Fatal(err)
	}
	requireTablesEqual(t, got, tab)
	meta, err := ds.DayMeta(0)
	if err != nil || meta.Rows != tab.NumRows() || len(meta.Columns) != len(tab.Cols) {
		t.Fatalf("DayMeta = %+v, %v", meta, err)
	}
	var sc IterScratch
	want := tab.Col("input_power.std").Floats
	rows, err := ds.IterDayColumns(0, []string{"timestamp"}, "input_power.std", &sc, func(start int, vals []float64) error {
		for j, v := range vals {
			if math.Float64bits(v) != math.Float64bits(want[start+j]) {
				return fmt.Errorf("row %d: %v != %v", start+j, v, want[start+j])
			}
		}
		return nil
	})
	if err != nil || rows != tab.NumRows() {
		t.Fatalf("IterDayColumns = %d rows, %v", rows, err)
	}
}

// TestTruncatedMultiMemberPartition cuts a multi-member partition at every
// member boundary — where the remaining bytes are still a valid gzip
// stream — and at a stride of offsets inside members. Every read path must
// fail naming the partition, never return a short table.
func TestTruncatedMultiMemberPartition(t *testing.T) {
	tab := blockTestTable(1_500)
	var buf bytes.Buffer
	if err := writeBlocks(&buf, tab, CodecDelta, 4<<10, 2); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ends, _ := gzipMembers(t, data)
	if len(ends) < 4 {
		t.Fatalf("only %d members", len(ends))
	}
	cuts := append([]int{0}, ends[:len(ends)-1]...)
	for off := 1; off < len(data); off += len(data)/40 + 1 {
		cuts = append(cuts, off)
	}
	for k := 1; k <= 8; k++ { // inside the final trailer (CRC-32, size)
		cuts = append(cuts, len(data)-k)
	}
	ds, err := NewDataset(t.TempDir(), "node-power")
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(ds.dayPath(0))
	last := tab.Cols[len(tab.Cols)-1].Name
	var sc IterScratch
	for _, cut := range cuts {
		if err := os.WriteFile(ds.dayPath(0), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(path string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("cut at %d of %d: %s succeeded", cut, len(data), path)
			}
			if !strings.Contains(err.Error(), "partition "+name) {
				t.Fatalf("cut at %d: %s error does not name the partition: %v", cut, path, err)
			}
		}
		_, err := ds.ReadDay(0)
		check("ReadDay", err)
		_, err = ds.ReadDayColumns(0, []string{"timestamp"})
		check("ReadDayColumns", err)
		_, err = ds.DayMeta(0)
		check("DayMeta", err)
		// The value column is the last one, so the iterator reads to the
		// end of the stream (an iterator that stops early never sees the
		// bytes after its columns).
		_, err = ds.IterDayColumns(0, []string{"timestamp", "node"}, last, &sc,
			func(int, []float64) error { return nil })
		check("IterDayColumns", err)
	}
}

// failAfter is a writer that accepts n bytes, then fails.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteFailsMidStream: a sink that fails after some members makes the
// write return its error, and no compression goroutine outlives the call.
func TestWriteFailsMidStream(t *testing.T) {
	tab := blockTestTable(3_000)
	boom := errors.New("disk full")
	for _, n := range []int{0, 100, 20 << 10} {
		w := &failAfter{n: n, err: boom}
		err := writeBlocks(w, tab, CodecDelta, 4<<10, 4)
		if !errors.Is(err, boom) {
			t.Fatalf("fail after %d bytes: err = %v", n, err)
		}
		if c := compressing.Load(); c != 0 {
			t.Fatalf("fail after %d bytes: %d blocks still compressing", n, c)
		}
	}
}

// TestWriteDayCodecFailsMidStream: an encode that fails after a block is in
// flight makes WriteDayCodec return the error, leave no .tmp file behind,
// and wait for every compression goroutine.
func TestWriteDayCodecFailsMidStream(t *testing.T) {
	tab := blockTestTable(30_000)
	// An over-long string in the last column fails the encoder only after
	// the fixed-width numeric columns (over one block) have been dispatched.
	strs := make([]string, tab.NumRows())
	strs[len(strs)-1] = strings.Repeat("x", maxStrLen+1)
	tab.Cols = append(tab.Cols, Column{Name: "note", Strs: strs})
	ds, err := NewDataset(t.TempDir(), "node-power")
	if err != nil {
		t.Fatal(err)
	}
	err = ds.WriteDayCodec(3, tab, CodecRawStore)
	if err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("WriteDayCodec err = %v", err)
	}
	if c := compressing.Load(); c != 0 {
		t.Fatalf("%d blocks still compressing after WriteDayCodec returned", c)
	}
	entries, err := os.ReadDir(ds.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed write left %s behind", e.Name())
	}
}
