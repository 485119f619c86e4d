package store

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// fuzzSeedTable builds a small but realistic day partition: an integer
// timestamp column at the archive's 10s cadence plus two float telemetry
// columns shaped like node power and water temperature.
func fuzzSeedTable() *Table {
	const n = 256
	ts := make([]int64, n)
	power := make([]float64, n)
	temp := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i * 10)
		power[i] = 8.5e6 + float64(i%32)*1e3
		temp[i] = 21.0 + float64(i%7)*0.25
	}
	return &Table{Cols: []Column{
		{Name: "timestamp", Ints: ts},
		{Name: "power_w", Floats: power},
		{Name: "mtw_supply_c", Floats: temp},
	}}
}

// FuzzReadDayColumns feeds arbitrary bytes through the full column-read
// path — header parse, per-column decode, column-subset skip, and the
// metadata scan — and requires malformed input to come back as errors, never
// panics or runaway allocations. The seed corpus is a genuinely encoded day
// under every codec, plus truncated and bit-flipped variants so the fuzzer
// starts past the gzip and magic-number gates, plus a multi-member stream.
func FuzzReadDayColumns(f *testing.F) {
	tab := fuzzSeedTable()
	for codec := Codec(0); codec < numCodecs; codec++ {
		var buf bytes.Buffer
		if err := WriteCodec(&buf, tab, codec); err != nil {
			f.Fatal(err)
		}
		enc := buf.Bytes()
		f.Add(append([]byte(nil), enc...))
		f.Add(append([]byte(nil), enc[:len(enc)/2]...))
		flipped := append([]byte(nil), enc...)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(flipped)
	}
	// A multi-member stream (the block-parallel layout at a small block
	// size) and the same stream cut at its first member boundary.
	var multi bytes.Buffer
	if err := writeBlocks(&multi, tab, CodecDelta, 512, 2); err != nil {
		f.Fatal(err)
	}
	enc := multi.Bytes()
	f.Add(append([]byte(nil), enc...))
	if first := firstMemberEnd(enc); first > 0 {
		f.Add(append([]byte(nil), enc[:first]...))
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if tbl, err := ReadColumns(bytes.NewReader(data), nil); err == nil {
			// A table that decodes cleanly must also be self-consistent.
			if err := tbl.Validate(); err != nil {
				t.Fatalf("decoded table fails Validate: %v", err)
			}
		}
		_, _ = ReadColumns(bytes.NewReader(data), []string{"timestamp"})
		_, _ = readDayMeta(bytes.NewReader(data), 0, []string{"timestamp"})
	})
}

// firstMemberEnd returns the byte length of the first gzip member in data
// (0 if it does not parse).
func firstMemberEnd(data []byte) int {
	br := bytes.NewReader(data)
	zr, err := gzip.NewReader(br)
	if err != nil {
		return 0
	}
	zr.Multistream(false)
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return 0
	}
	return len(data) - br.Len()
}
