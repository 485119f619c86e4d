package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// This file is the streaming read path of the archive: a day partition is
// consumed column by column into reused scratch, with the value column
// delivered to the caller in row-order blocks *during* decode. Aggregating
// queries (rollups, downsamples, the analyses' series extraction) fold each
// block as it appears and never materialize a day table — no O(rows x cols)
// allocation, nothing retained, nothing for the cache to churn on.

// IterScratch holds the reusable buffers of streaming day reads. The zero
// value is ready to use; reuse one scratch across many IterDayColumns calls
// (it is not safe for concurrent use — give each worker its own).
type IterScratch struct {
	// Axes holds the decoded axis columns of the current call, parallel to
	// the axes argument. Valid from the first fn callback until the next
	// IterDayColumns call on this scratch.
	Axes [][]int64

	seen   []bool
	iblock []int64
	fblock []float64
	fbuf   []float64
}

// IterDayColumns streams the named numeric value column of one day
// partition in row-order blocks. The integer columns named in axes (the
// time axis, the node axis) are decoded whole into sc.Axes first; fn is
// then called with consecutive blocks of the value column, where start is
// the absolute row index of vals[0] (indexing straight into sc.Axes).
// Integer value columns are widened to float64. A non-nil error from fn
// aborts the read and is returned unwrapped.
//
// Everything handed to fn — vals and sc.Axes — is scratch, valid only for
// the current call; callers must fold, not retain.
//
// The returned count is the partition's declared row count (every axis and
// the value column decode to exactly that many rows).
func (d *Dataset) IterDayColumns(day int, axes []string, value string, sc *IterScratch, fn func(start int, vals []float64) error) (int, error) {
	f, err := os.Open(d.dayPath(day))
	if err != nil {
		return 0, fmt.Errorf("store: dataset %q day %d: %w", d.Name, day, err)
	}
	defer f.Close()
	rows, err := iterColumns(f, axes, value, sc, fn)
	if err != nil {
		return 0, d.partitionErr(day, err)
	}
	return rows, nil
}

func iterColumns(r io.Reader, axes []string, value string, sc *IterScratch, fn func(start int, vals []float64) error) (int, error) {
	sr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	defer sr.Close()
	if cap(sc.Axes) < len(axes) {
		sc.Axes = make([][]int64, len(axes))
	} else {
		sc.Axes = sc.Axes[:len(axes)]
	}
	if cap(sc.seen) < len(axes) {
		sc.seen = make([]bool, len(axes))
	} else {
		sc.seen = sc.seen[:len(axes)]
	}
	for i := range sc.seen {
		sc.seen[i] = false
	}
	if sc.iblock == nil {
		sc.iblock = make([]int64, gorillaBlockRows)
		sc.fblock = make([]float64, gorillaBlockRows)
	}

	axesDone := 0
	valueDone := false
	deferred := false   // value decoded into fbuf before all axes were ready
	valueFromAxis := -1 // value column doubles as an axis
	for axesDone < len(axes) || !valueDone {
		info, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		ai := -1
		for k, name := range axes {
			if !sc.seen[k] && name == info.Name {
				ai = k
				break
			}
		}
		if ai >= 0 {
			if !info.Int {
				return 0, fmt.Errorf("store: axis column %q is not integer-typed", info.Name)
			}
			if sc.Axes[ai], err = sr.columnIntsInto(sc.Axes[ai]); err != nil {
				return 0, err
			}
			sc.seen[ai] = true
			axesDone++
			if info.Name == value && !valueDone {
				valueFromAxis = ai
				valueDone = true
			}
			continue
		}
		if info.Name == value && !valueDone {
			if axesDone == len(axes) {
				// All axes decoded: stream the value column straight
				// through fn, block by block during decode.
				if err := sr.columnValueBlocks(sc.iblock, sc.fblock, fn); err != nil {
					return 0, err
				}
			} else {
				// The value column precedes an axis in file order: buffer
				// it and deliver once the axes are complete.
				sc.fbuf = sc.fbuf[:0]
				buffer := func(start int, vals []float64) error {
					sc.fbuf = append(sc.fbuf, vals...)
					return nil
				}
				if err := sr.columnValueBlocks(sc.iblock, sc.fblock, buffer); err != nil {
					return 0, err
				}
				deferred = true
			}
			valueDone = true
			continue
		}
		if err := sr.Skip(); err != nil {
			return 0, err
		}
	}
	if sr.read == sr.nCols {
		// Every column was consumed: confirm the stream ends here, which
		// also verifies the final gzip member's checksum.
		if err := sr.end(); err != nil {
			return 0, err
		}
	}
	for k, name := range axes {
		if !sc.seen[k] {
			return 0, fmt.Errorf("store: missing axis column %q", name)
		}
	}
	if !valueDone {
		return 0, fmt.Errorf("store: missing value column %q", value)
	}
	switch {
	case valueFromAxis >= 0:
		src := sc.Axes[valueFromAxis]
		for start := 0; start < len(src); {
			n := len(src) - start
			if n > len(sc.fblock) {
				n = len(sc.fblock)
			}
			for j := 0; j < n; j++ {
				sc.fblock[j] = float64(src[start+j])
			}
			if err := fn(start, sc.fblock[:n]); err != nil {
				return 0, err
			}
			start += n
		}
	case deferred:
		if len(sc.fbuf) > 0 {
			if err := fn(0, sc.fbuf); err != nil {
				return 0, err
			}
		}
	}
	return sr.NumRows(), nil
}

// columnIntsInto decodes the pending integer column into dst[:0], reusing
// its capacity, and consumes it.
func (r *Reader) columnIntsInto(dst []int64) ([]int64, error) {
	if !r.pending {
		return nil, fmt.Errorf("store: column read without Next")
	}
	if !r.cur.Int {
		return nil, fmt.Errorf("store: column %q is not integer-typed", r.cur.Name)
	}
	out, err := r.decodeIntsInto(dst)
	if err != nil {
		return nil, err
	}
	r.pending = false
	r.read++
	return out, nil
}

// columnValueBlocks streams the pending numeric column through fn as
// float64 blocks in row order (integer columns are widened), reusing
// iblock/fblock (equal lengths), and consumes it.
func (r *Reader) columnValueBlocks(iblock []int64, fblock []float64, fn func(start int, vals []float64) error) error {
	if !r.pending {
		return fmt.Errorf("store: column read without Next")
	}
	if r.cur.Str {
		return fmt.Errorf("store: column %q is string-typed, not numeric", r.cur.Name)
	}
	var err error
	if r.cur.Int {
		err = r.intBlocks(iblock, func(start int, vals []int64) error {
			for j, v := range vals {
				fblock[j] = float64(v)
			}
			return fn(start, fblock[:len(vals)])
		})
	} else {
		err = r.floatBlocks(fblock, fn)
	}
	if err != nil {
		return err
	}
	r.pending = false
	r.read++
	return nil
}

// floatBlocks decodes the pending float column block by block. It does not
// consume the column; callers manage that state.
func (r *Reader) floatBlocks(block []float64, fn func(start int, vals []float64) error) error {
	if r.codec == CodecGorilla {
		n, err := r.payloadLen(gorillaPayloadBound(r.nRows))
		if err != nil {
			return err
		}
		payload, err := r.readPayload(n)
		if err != nil {
			return err
		}
		var dec gorillaFloatDecoder
		dec.Reset(payload)
		for start := 0; start < r.nRows; {
			want := r.nRows - start
			if want > len(block) {
				want = len(block)
			}
			got := dec.DecodeBlock(block[:want], r.nRows)
			if got <= 0 {
				return errTruncatedPayload(r.cur.Name, start)
			}
			if err := fn(start, block[:got]); err != nil {
				return err
			}
			start += got
		}
		if used := (dec.bit + 7) / 8; used != len(payload) {
			return fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-used)
		}
		return nil
	}
	if r.codec.delta() {
		prev := uint64(0)
		for start := 0; start < r.nRows; {
			n := r.nRows - start
			if n > len(block) {
				n = len(block)
			}
			for j := 0; j < n; j++ {
				u, err := binary.ReadUvarint(r.br)
				if err != nil {
					return fmt.Errorf("store: column %q row %d: %w", r.cur.Name, start+j, err)
				}
				prev ^= u
				block[j] = math.Float64frombits(prev)
			}
			if err := fn(start, block[:n]); err != nil {
				return err
			}
			start += n
		}
		return nil
	}
	var raw [8]byte
	for start := 0; start < r.nRows; {
		n := r.nRows - start
		if n > len(block) {
			n = len(block)
		}
		for j := 0; j < n; j++ {
			if _, err := io.ReadFull(r.br, raw[:]); err != nil {
				return fmt.Errorf("store: column %q row %d: %w", r.cur.Name, start+j, err)
			}
			block[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
		if err := fn(start, block[:n]); err != nil {
			return err
		}
		start += n
	}
	return nil
}

// intBlocks decodes the pending integer column block by block. It does not
// consume the column; callers manage that state.
func (r *Reader) intBlocks(block []int64, fn func(start int, vals []int64) error) error {
	if r.codec == CodecGorilla {
		n, err := r.payloadLen(gorillaPayloadBound(r.nRows))
		if err != nil {
			return err
		}
		payload, err := r.readPayload(n)
		if err != nil {
			return err
		}
		var dec gorillaIntDecoder
		dec.Reset(payload)
		for start := 0; start < r.nRows; {
			want := r.nRows - start
			if want > len(block) {
				want = len(block)
			}
			got := dec.DecodeBlock(block[:want], r.nRows)
			if got <= 0 {
				return errTruncatedPayload(r.cur.Name, start)
			}
			if err := fn(start, block[:got]); err != nil {
				return err
			}
			start += got
		}
		if dec.pos != len(payload) {
			return fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-dec.pos)
		}
		return nil
	}
	if r.codec.delta() {
		prev := int64(0)
		for start := 0; start < r.nRows; {
			n := r.nRows - start
			if n > len(block) {
				n = len(block)
			}
			for j := 0; j < n; j++ {
				u, err := binary.ReadUvarint(r.br)
				if err != nil {
					return fmt.Errorf("store: column %q row %d: %w", r.cur.Name, start+j, err)
				}
				prev += unzigzag(u)
				block[j] = prev
			}
			if err := fn(start, block[:n]); err != nil {
				return err
			}
			start += n
		}
		return nil
	}
	var raw [8]byte
	for start := 0; start < r.nRows; {
		n := r.nRows - start
		if n > len(block) {
			n = len(block)
		}
		for j := 0; j < n; j++ {
			if _, err := io.ReadFull(r.br, raw[:]); err != nil {
				return fmt.Errorf("store: column %q row %d: %w", r.cur.Name, start+j, err)
			}
			block[j] = int64(binary.LittleEndian.Uint64(raw[:]))
		}
		if err := fn(start, block[:n]); err != nil {
			return err
		}
		start += n
	}
	return nil
}
