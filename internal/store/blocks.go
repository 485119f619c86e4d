package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
)

// blockSize is the uncompressed span of one gzip member. The encoded stream
// (header plus columns) is cut at every multiple of blockSize, and each
// piece is deflated on its own, so a partition of n encoded bytes is
// ceil(n/blockSize) concatenated members. The cut depends only on byte
// offsets, never on how many workers compressed the pieces, which keeps a
// file's bytes identical for any GOMAXPROCS.
const blockSize = 1 << 20

// compressing counts blocks currently being deflated by a worker. Every
// write path waits for its workers before returning, so this is zero
// whenever no write is in progress; the failure-path tests assert that.
var compressing atomic.Int64

// blockWriter is the buffered sink the table encoder writes into. It fills
// one block at a time and hands each full block to a compression goroutine,
// so encoding continues while earlier blocks deflate. At most workers
// blocks are compressing at once (plus the one being filled), and members
// reach the underlying writer strictly in stream order.
type blockWriter struct {
	w       io.Writer
	codec   Codec
	size    int
	workers int

	cur     *block   // block being filled (nil until the first byte)
	pending []*block // dispatched blocks, oldest first
	err     error    // first write or compression error; sticky
}

// block is one uncompressed span and, once done is closed, its gzip member.
type block struct {
	in   []byte
	out  bytes.Buffer
	err  error
	done chan struct{}
}

// blockPool recycles blocks across writes. A block's input buffer grows by
// append up to the block size, so small tables never pay for a full block.
var blockPool = sync.Pool{New: func() any { return new(block) }}

// gzipPools recycles gzip writers per codec (so per compression level): a
// deflate compressor carries several hundred KiB of hash tables, and every
// member needs one.
var gzipPools [numCodecs]sync.Pool

func newBlockWriter(w io.Writer, codec Codec, size, workers int) *blockWriter {
	return &blockWriter{w: w, codec: codec, size: size, workers: max(workers, 1)}
}

// room returns the unfilled tail capacity of the current block, starting
// one if needed.
func (bw *blockWriter) room() int {
	if bw.cur == nil {
		bw.cur = blockPool.Get().(*block)
		bw.cur.in = bw.cur.in[:0]
	}
	return bw.size - len(bw.cur.in)
}

// Write appends p to the stream, dispatching every block it fills.
func (bw *blockWriter) Write(p []byte) (int, error) { return appendStream(bw, p) }

// WriteString appends s to the stream.
func (bw *blockWriter) WriteString(s string) (int, error) { return appendStream(bw, s) }

func appendStream[T ~string | ~[]byte](bw *blockWriter, p T) (int, error) {
	n := 0
	for len(p) > 0 {
		if bw.err != nil {
			return n, bw.err
		}
		k := min(bw.room(), len(p))
		bw.cur.in = append(bw.cur.in, p[:k]...)
		n += k
		p = p[k:]
		if len(bw.cur.in) == bw.size {
			bw.dispatch(false)
		}
	}
	return n, bw.err
}

// WriteByte appends c to the stream.
func (bw *blockWriter) WriteByte(c byte) error {
	if bw.err != nil {
		return bw.err
	}
	bw.room()
	bw.cur.in = append(bw.cur.in, c)
	if len(bw.cur.in) == bw.size {
		bw.dispatch(false)
	}
	return bw.err
}

// putUvarint appends v as a uvarint, straight into the block when it fits.
func (bw *blockWriter) putUvarint(v uint64) error {
	if bw.err == nil && bw.room() >= binary.MaxVarintLen64 {
		bw.cur.in = binary.AppendUvarint(bw.cur.in, v)
		if len(bw.cur.in) == bw.size {
			bw.dispatch(false)
		}
		return bw.err
	}
	var scratch [binary.MaxVarintLen64]byte
	_, err := bw.Write(binary.AppendUvarint(scratch[:0], v))
	return err
}

// dispatch hands the current block to a compression goroutine — or, for
// the final block, compresses it on the caller, which would otherwise only
// wait — first writing out the oldest pending member when every worker is
// busy.
func (bw *blockWriter) dispatch(final bool) {
	b := bw.cur
	bw.cur = nil
	if len(bw.pending) == bw.workers {
		bw.emit()
	}
	b.done = make(chan struct{})
	compressing.Add(1)
	if final {
		b.compress(bw.codec)
	} else {
		go b.compress(bw.codec)
	}
	bw.pending = append(bw.pending, b)
}

// compress deflates the block into one gzip member at the codec's level
// and signals done.
func (b *block) compress(codec Codec) {
	defer close(b.done)
	defer compressing.Add(-1)
	b.out.Reset()
	pool := &gzipPools[codec]
	zw, _ := pool.Get().(*gzip.Writer)
	if zw == nil {
		var err error
		if zw, err = gzip.NewWriterLevel(&b.out, codec.gzipLevel()); err != nil {
			b.err = err
			return
		}
	} else {
		zw.Reset(&b.out)
	}
	if _, err := zw.Write(b.in); err != nil {
		b.err = err
		return
	}
	b.err = zw.Close()
	pool.Put(zw)
}

// emit waits for the oldest pending block and, unless an error already
// stopped the stream, writes its member out.
func (bw *blockWriter) emit() {
	b := bw.pending[0]
	bw.pending[0] = nil
	bw.pending = bw.pending[1:]
	<-b.done
	if bw.err == nil {
		if bw.err = b.err; bw.err == nil {
			_, bw.err = bw.w.Write(b.out.Bytes())
		}
	}
	b.err, b.done = nil, nil
	blockPool.Put(b)
}

// Close compresses the final partial block and writes every remaining
// member in order. It returns the first error of the whole stream.
func (bw *blockWriter) Close() error {
	if bw.err == nil && bw.cur != nil && len(bw.cur.in) > 0 {
		bw.dispatch(true)
	}
	bw.drain()
	return bw.err
}

// abort stops the stream with err (unless it already failed): nothing more
// reaches the underlying writer, and abort returns only once every
// compression goroutine has finished.
func (bw *blockWriter) abort(err error) {
	if bw.err == nil {
		bw.err = err
	}
	bw.drain()
}

// drain waits for every pending block, writing its member only if the
// stream has not failed, and releases the current block. After it returns
// no worker touches the writer or its buffers.
func (bw *blockWriter) drain() {
	for len(bw.pending) > 0 {
		bw.emit()
	}
	if bw.cur != nil {
		blockPool.Put(bw.cur)
		bw.cur = nil
	}
}
