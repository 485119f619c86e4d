package store

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// ColumnInfo describes one column of a table without its data.
type ColumnInfo struct {
	Name string
	Int  bool // integer-typed
	Str  bool // string-typed (neither set = float)
}

// Reader streams a table written by Write one column at a time, letting the
// caller decode or skip each column. This is the serving-path primitive: a
// query that touches two of fourteen columns pays the varint walk for all of
// them (the format is variable-width) but allocates and retains only the two
// it asked for.
//
// Usage: NewReader, then repeat Next -> (Column | Skip) until Next returns
// io.EOF, then Close.
type Reader struct {
	zr    *gzip.Reader
	br    *bufio.Reader
	codec Codec
	nCols int
	nRows int

	read    int  // columns fully consumed
	pending bool // Next announced a column not yet consumed
	cur     ColumnInfo

	payload []byte // reused scratch for length-prefixed CodecGorilla payloads
}

// NewReader parses the header and positions the reader at the first column.
func NewReader(r io.Reader) (*Reader, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("store: gzip: %w", err)
	}
	br := bufio.NewReader(zr)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		_ = zr.Close()
		return nil, fmt.Errorf("store: header: %w", err)
	}
	if string(head) != magic {
		_ = zr.Close()
		return nil, fmt.Errorf("store: bad magic %q", head)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		_ = zr.Close()
		return nil, err
	}
	if ver != version && ver != versionStrings {
		_ = zr.Close()
		return nil, fmt.Errorf("store: unsupported version %d", ver)
	}
	codecByte, err := br.ReadByte()
	if err != nil {
		_ = zr.Close()
		return nil, err
	}
	codec := Codec(codecByte)
	if codec >= numCodecs {
		_ = zr.Close()
		return nil, fmt.Errorf("store: unknown codec %d", codec)
	}
	nCols, err := binary.ReadUvarint(br)
	if err != nil {
		_ = zr.Close()
		return nil, err
	}
	nRows, err := binary.ReadUvarint(br)
	if err != nil {
		_ = zr.Close()
		return nil, err
	}
	const maxCols, maxRows = 1 << 16, 1 << 32
	if nCols > maxCols || nRows > maxRows {
		_ = zr.Close()
		return nil, fmt.Errorf("store: implausible dimensions %d x %d", nCols, nRows)
	}
	return &Reader{zr: zr, br: br, codec: codec, nCols: int(nCols), nRows: int(nRows)}, nil
}

// NumCols returns the column count declared in the header.
func (r *Reader) NumCols() int { return r.nCols }

// NumRows returns the row count declared in the header.
func (r *Reader) NumRows() int { return r.nRows }

// Codec returns the codec the table was written with.
func (r *Reader) Codec() Codec { return r.codec }

// Next announces the next column's name and type. It returns io.EOF after
// the last column, once the stream is confirmed to end there. The caller
// must consume the column with Column or Skip before calling Next again.
func (r *Reader) Next() (ColumnInfo, error) {
	if r.pending {
		return ColumnInfo{}, fmt.Errorf("store: column %q not consumed", r.cur.Name)
	}
	if r.read >= r.nCols {
		if err := r.end(); err != nil {
			return ColumnInfo{}, err
		}
		return ColumnInfo{}, io.EOF
	}
	nameLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return ColumnInfo{}, fmt.Errorf("store: column %d header: %w", r.read, err)
	}
	if nameLen > 4096 {
		return ColumnInfo{}, fmt.Errorf("store: column name too long")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r.br, name); err != nil {
		return ColumnInfo{}, fmt.Errorf("store: column %d name: %w", r.read, err)
	}
	kind, err := r.br.ReadByte()
	if err != nil {
		return ColumnInfo{}, fmt.Errorf("store: column %q kind: %w", name, err)
	}
	switch kind {
	case colInt, colFlt, colStr:
	default:
		return ColumnInfo{}, fmt.Errorf("store: unknown column kind %d", kind)
	}
	r.cur = ColumnInfo{Name: string(name), Int: kind == colInt, Str: kind == colStr}
	r.pending = true
	return r.cur, nil
}

// Column decodes the values of the column last announced by Next.
func (r *Reader) Column() (*Column, error) {
	if !r.pending {
		return nil, fmt.Errorf("store: Column without Next")
	}
	col := Column{Name: r.cur.Name}
	var err error
	switch {
	case r.cur.Int:
		col.Ints, err = r.decodeInts()
	case r.cur.Str:
		col.Strs, err = r.decodeStrs()
	default:
		col.Floats, err = r.decodeFloats()
	}
	if err != nil {
		return nil, err
	}
	r.pending = false
	r.read++
	return &col, nil
}

// Skip discards the values of the column last announced by Next without
// retaining them.
func (r *Reader) Skip() error {
	if !r.pending {
		return fmt.Errorf("store: Skip without Next")
	}
	var err error
	switch {
	case r.codec == CodecGorilla:
		// Every gorilla column payload is length-prefixed: one uvarint and
		// one Discard, no varint walk. This is what makes column-selective
		// reads cheap under the new codec.
		bound := gorillaPayloadBound(r.nRows)
		if r.cur.Str {
			bound = uint64(r.nRows)*(maxStrLen+binary.MaxVarintLen64) + 16
		}
		n, err := r.payloadLen(bound)
		if err != nil {
			return err
		}
		if _, err := r.br.Discard(n); err != nil {
			return fmt.Errorf("store: column %q: %w", r.cur.Name, err)
		}
	case r.cur.Str:
		// Strings are length-prefixed under every codec; walk and
		// discard value by value.
		for j := 0; j < r.nRows; j++ {
			n, err := binary.ReadUvarint(r.br)
			if err != nil {
				return fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
			}
			if n > maxStrLen {
				return fmt.Errorf("store: column %q row %d: string too long (%d bytes)", r.cur.Name, j, n)
			}
			if _, err := r.br.Discard(int(n)); err != nil {
				return fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
			}
		}
	case r.codec.delta():
		// Variable-width: the varints must still be walked.
		for j := 0; j < r.nRows; j++ {
			if _, err = binary.ReadUvarint(r.br); err != nil {
				return fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
			}
		}
	default:
		if _, err = r.br.Discard(8 * r.nRows); err != nil {
			return fmt.Errorf("store: column %q: %w", r.cur.Name, err)
		}
	}
	r.pending = false
	r.read++
	return nil
}

// end confirms the stream holds nothing after the last column. Reading to
// the end is also what makes gzip verify the final member's checksum and
// length: without it, a file cut inside its last trailer decodes as whole.
func (r *Reader) end() error {
	_, err := r.br.ReadByte()
	switch err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("store: trailing data after %d columns", r.nCols)
	}
	return fmt.Errorf("store: end of table: %w", err)
}

// maxPreallocRows bounds the rows allocated up front when decoding a
// column. The header's row count is attacker-controlled up to 2^32; a claim
// beyond this cap must surface as a decode error when the stream runs dry,
// not as a multi-gigabyte allocation.
const maxPreallocRows = 1 << 20

// gorillaBlockRows is the block size the gorilla decoders produce values in;
// small enough to live in cache, large enough to amortize the loop.
const gorillaBlockRows = 4096

// payloadLen reads and validates the byte-length prefix of the pending
// CodecGorilla column against bound (the largest plausible payload for the
// declared row count — corrupt length claims must fail here, not allocate).
func (r *Reader) payloadLen(bound uint64) (int, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("store: column %q payload length: %w", r.cur.Name, err)
	}
	if n > bound {
		return 0, fmt.Errorf("store: column %q payload length %d exceeds bound %d", r.cur.Name, n, bound)
	}
	return int(n), nil
}

// readPayload reads n bytes into the reader's reused scratch. Growth is
// chunked so a corrupt length claim on a truncated stream fails after at
// most one extra chunk instead of allocating the full claim up front.
func (r *Reader) readPayload(n int) ([]byte, error) {
	if cap(r.payload) >= n {
		buf := r.payload[:n]
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, fmt.Errorf("store: column %q payload: %w", r.cur.Name, err)
		}
		return buf, nil
	}
	const chunk = 1 << 20
	buf := r.payload[:0]
	for len(buf) < n {
		c := n - len(buf)
		if c > chunk {
			c = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r.br, buf[start:]); err != nil {
			r.payload = buf[:0]
			return nil, fmt.Errorf("store: column %q payload: %w", r.cur.Name, err)
		}
	}
	r.payload = buf
	return buf, nil
}

func (r *Reader) decodeGorillaInts(out []int64) ([]int64, error) {
	n, err := r.payloadLen(gorillaPayloadBound(r.nRows))
	if err != nil {
		return nil, err
	}
	payload, err := r.readPayload(n)
	if err != nil {
		return nil, err
	}
	var dec gorillaIntDecoder
	dec.Reset(payload)
	var block [gorillaBlockRows]int64
	for len(out) < r.nRows {
		want := r.nRows - len(out)
		if want > len(block) {
			want = len(block)
		}
		got := dec.DecodeBlock(block[:want], r.nRows)
		if got <= 0 {
			return nil, errTruncatedPayload(r.cur.Name, len(out))
		}
		out = append(out, block[:got]...)
	}
	if dec.pos != len(payload) {
		return nil, fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-dec.pos)
	}
	return out, nil
}

func (r *Reader) decodeGorillaFloats(out []float64) ([]float64, error) {
	n, err := r.payloadLen(gorillaPayloadBound(r.nRows))
	if err != nil {
		return nil, err
	}
	payload, err := r.readPayload(n)
	if err != nil {
		return nil, err
	}
	var dec gorillaFloatDecoder
	dec.Reset(payload)
	var block [gorillaBlockRows]float64
	for len(out) < r.nRows {
		want := r.nRows - len(out)
		if want > len(block) {
			want = len(block)
		}
		got := dec.DecodeBlock(block[:want], r.nRows)
		if got <= 0 {
			return nil, errTruncatedPayload(r.cur.Name, len(out))
		}
		out = append(out, block[:got]...)
	}
	if used := (dec.bit + 7) / 8; used != len(payload) {
		return nil, fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-used)
	}
	return out, nil
}

func (r *Reader) decodeGorillaStrs() ([]string, error) {
	bound := uint64(r.nRows)*(maxStrLen+binary.MaxVarintLen64) + 16
	n, err := r.payloadLen(bound)
	if err != nil {
		return nil, err
	}
	payload, err := r.readPayload(n)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, min(r.nRows, maxPreallocRows))
	pos := 0
	for j := 0; j < r.nRows; j++ {
		l, sz := binary.Uvarint(payload[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("store: column %q row %d: bad string length", r.cur.Name, j)
		}
		pos += sz
		if l > maxStrLen {
			return nil, fmt.Errorf("store: column %q row %d: string too long (%d bytes)", r.cur.Name, j, l)
		}
		if uint64(len(payload)-pos) < l {
			return nil, fmt.Errorf("store: column %q row %d: string truncated", r.cur.Name, j)
		}
		out = append(out, string(payload[pos:pos+int(l)]))
		pos += int(l)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("store: column %q: %d trailing payload bytes", r.cur.Name, len(payload)-pos)
	}
	return out, nil
}

func (r *Reader) decodeInts() ([]int64, error) { return r.decodeIntsInto(nil) }

// decodeIntsInto appends the pending integer column's values into dst[:0],
// reusing its capacity when large enough (the iterator path's axis scratch).
func (r *Reader) decodeIntsInto(dst []int64) ([]int64, error) {
	out := dst[:0]
	if need := min(r.nRows, maxPreallocRows); cap(out) < need {
		out = make([]int64, 0, need)
	}
	if r.codec == CodecGorilla {
		return r.decodeGorillaInts(out)
	}
	if r.codec.delta() {
		prev := int64(0)
		for j := 0; j < r.nRows; j++ {
			u, err := binary.ReadUvarint(r.br)
			if err != nil {
				return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
			}
			prev += unzigzag(u)
			out = append(out, prev)
		}
		return out, nil
	}
	var raw [8]byte
	for j := 0; j < r.nRows; j++ {
		if _, err := io.ReadFull(r.br, raw[:]); err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
		}
		out = append(out, int64(binary.LittleEndian.Uint64(raw[:])))
	}
	return out, nil
}

func (r *Reader) decodeFloats() ([]float64, error) {
	out := make([]float64, 0, min(r.nRows, maxPreallocRows))
	if r.codec == CodecGorilla {
		return r.decodeGorillaFloats(out)
	}
	if r.codec.delta() {
		prev := uint64(0)
		for j := 0; j < r.nRows; j++ {
			u, err := binary.ReadUvarint(r.br)
			if err != nil {
				return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
			}
			prev ^= u
			out = append(out, math.Float64frombits(prev))
		}
		return out, nil
	}
	var raw [8]byte
	for j := 0; j < r.nRows; j++ {
		if _, err := io.ReadFull(r.br, raw[:]); err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
		}
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
	}
	return out, nil
}

func (r *Reader) decodeStrs() ([]string, error) {
	if r.codec == CodecGorilla {
		return r.decodeGorillaStrs()
	}
	out := make([]string, 0, min(r.nRows, maxPreallocRows))
	var buf []byte
	for j := 0; j < r.nRows; j++ {
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
		}
		if n > maxStrLen {
			return nil, fmt.Errorf("store: column %q row %d: string too long (%d bytes)", r.cur.Name, j, n)
		}
		if uint64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		b := buf[:n]
		if _, err := io.ReadFull(r.br, b); err != nil {
			return nil, fmt.Errorf("store: column %q row %d: %w", r.cur.Name, j, err)
		}
		out = append(out, string(b))
	}
	return out, nil
}

// Close releases the underlying gzip reader. It does not close the wrapped
// io.Reader.
func (r *Reader) Close() error { return r.zr.Close() }

// ReadColumns deserializes only the named columns of a table written by
// Write (nil selects every column, making it equivalent to Read). Requested
// names absent from the table are ignored; check the result with Col.
func ReadColumns(r io.Reader, names []string) (*Table, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	var want map[string]bool
	if names != nil {
		want = make(map[string]bool, len(names))
		for _, n := range names {
			want[n] = true
		}
	}
	t := &Table{}
	for {
		info, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if want != nil && !want[info.Name] {
			if err := sr.Skip(); err != nil {
				return nil, err
			}
			continue
		}
		col, err := sr.Column()
		if err != nil {
			return nil, err
		}
		t.Cols = append(t.Cols, *col)
	}
	return t, t.Validate()
}

// DayMeta is the row-range metadata of one day partition: its shape, column
// inventory, and the time span covered by its time column. The query tier
// uses it to prune partitions without decoding them fully.
type DayMeta struct {
	Day     int
	Rows    int
	Columns []ColumnInfo
	// TimeColumn is the integer column the span was taken from ("" when
	// none of the candidates is present; then HasTime is false and the
	// partition cannot be pruned by time).
	TimeColumn       string
	HasTime          bool
	MinTime, MaxTime int64
}

// DayMeta scans the partition for the given day and returns its metadata.
// timeCols lists candidate time-column names in priority order; empty
// defaults to "timestamp". Only the matched time column is decoded — every
// other column is skipped, so the scan allocates O(rows) once instead of
// O(rows x cols).
func (d *Dataset) DayMeta(day int, timeCols ...string) (DayMeta, error) {
	if len(timeCols) == 0 {
		timeCols = []string{"timestamp"}
	}
	f, err := os.Open(d.dayPath(day))
	if err != nil {
		return DayMeta{}, fmt.Errorf("store: dataset %q day %d: %w", d.Name, day, err)
	}
	defer f.Close()
	meta, err := readDayMeta(f, day, timeCols)
	if err != nil {
		return DayMeta{}, d.partitionErr(day, err)
	}
	return meta, nil
}

func readDayMeta(r io.Reader, day int, timeCols []string) (DayMeta, error) {
	sr, err := NewReader(r)
	if err != nil {
		return DayMeta{}, err
	}
	defer sr.Close()
	isTime := make(map[string]bool, len(timeCols))
	for _, n := range timeCols {
		isTime[n] = true
	}
	meta := DayMeta{Day: day, Rows: sr.NumRows()}
	for {
		info, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return DayMeta{}, err
		}
		meta.Columns = append(meta.Columns, info)
		if !meta.HasTime && info.Int && isTime[info.Name] {
			col, err := sr.Column()
			if err != nil {
				return DayMeta{}, err
			}
			meta.TimeColumn = info.Name
			if len(col.Ints) > 0 {
				meta.HasTime = true
				meta.MinTime, meta.MaxTime = col.Ints[0], col.Ints[0]
				for _, t := range col.Ints[1:] {
					if t < meta.MinTime {
						meta.MinTime = t
					}
					if t > meta.MaxTime {
						meta.MaxTime = t
					}
				}
			}
			continue
		}
		if err := sr.Skip(); err != nil {
			return DayMeta{}, err
		}
	}
	return meta, nil
}

// ReadDayColumns loads only the named columns of a day partition (nil loads
// all, like ReadDay).
func (d *Dataset) ReadDayColumns(day int, names []string) (*Table, error) {
	f, err := os.Open(d.dayPath(day))
	if err != nil {
		return nil, fmt.Errorf("store: dataset %q day %d: %w", d.Name, day, err)
	}
	defer f.Close()
	t, err := ReadColumns(f, names)
	if err != nil {
		return nil, d.partitionErr(day, err)
	}
	return t, nil
}
