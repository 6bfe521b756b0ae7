package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/floatbits"
	"repro/internal/grid"
	"repro/internal/streamfmt"
)

// Streaming compression: the field is sliced along dims[0] into
// chunks, each chunk becomes one self-describing Compress stream, and
// the field flows through the bounded chunk pipeline (runChunkPool,
// pipeline.go) instead of being materialized: its producer slices rows
// off an io.Reader of raw little-endian floats, its workers compress
// chunks concurrently, and the caller's goroutine emits framed chunks
// (internal/streamfmt) in field order. Decompression runs the same
// pipeline the other way round. Peak memory is O(workers × chunk),
// independent of field size, which is what lets a rank open fields
// larger than its share of RAM before dumping to the parallel file
// system (the paper's §V.C deployment shape, as FRaZ and the
// bit-adaptive particle compressor stress for practical pipelines). The
// same pipeline is the package's multi-core compressor: for an
// in-memory field, wrap it in a bytes.Reader.
//
// Both directions take WithContext: cancellation (like a sink write
// error) stops the pipeline, after which the producer pulls no further
// frames, the workers drain, and every pipeline goroutine exits before
// the call returns. The one blocking operation a context cannot
// interrupt is a Read/Write already in flight on the caller's reader or
// writer — teardown completes when that call returns, the same contract
// as any blocking Go I/O.
//
// The containers this pipeline seals are also randomly addressable:
// OpenStream (seek.go) rebuilds the chunk offset table from the tail
// index frame and serves arbitrary row ranges at O(touched chunks)
// cost through the same pipeline.

// StreamStats reports per-stream observability counters. All fields are
// totals over the whole stream; wall times are per stage (Codec summed
// across workers, so it can exceed the end-to-end time).
type StreamStats struct {
	// Chunks is the number of chunk frames processed.
	Chunks int
	// BytesIn and BytesOut count the bytes consumed from the source and
	// emitted to the sink, container framing included.
	BytesIn, BytesOut int64
	// ReadWall is time spent reading and unmarshalling input.
	ReadWall time.Duration
	// CodecWall is time spent in Compress/Decompress, summed over workers.
	CodecWall time.Duration
	// WriteWall is time spent marshalling and writing output.
	WriteWall time.Duration
	// MaxInFlight is the peak number of chunks alive in the pipeline.
	MaxInFlight int
	// BuffersAllocated is the number of chunk-sized scratch buffers the
	// pipeline allocated; it is bounded by workers+2 regardless of field
	// size (the bounded-memory guarantee the tests assert).
	BuffersAllocated int
	// ParityFrames counts parity frames handled inline: emitted on
	// compress, verified on linear decompress, skipped during fetch on
	// range reads (parity frames fetched again for a repair are counted
	// in BytesIn, not here).
	ParityFrames int
	// RepairedChunks counts chunks reconstructed from parity on the
	// seekable read path (the salvage path reports repairs in its
	// SalvageReport instead).
	RepairedChunks int
	// VerifiedChunks counts chunks decode-verified by VerifyOnWrite.
	VerifiedChunks int
}

// compressJob is one chunk on the compress path.
type compressJob struct {
	seq  int
	rows int
	data []float64 // freelisted chunk buffer
	out  []byte    // compressed frame payload
}

// decodeJob is one chunk on a decode path (stream, range read, legacy
// 0xC6): its payload, the freelisted buffer the payload lives in (nil
// when the path recycles none), and the decoded values.
type decodeJob struct {
	seq int
	in  []byte
	buf []byte
	dec []float64
}

// defaultChunkRows targets ~256Ki elements (2 MiB of float64) per
// chunk, shrunk so a chunk's raw bytes stay within maxChunkBytes when
// the caller compresses under DecodeLimits: a container written under
// limits L must round-trip under the same L, and the decoder enforces
// MaxChunkBytes against every frame payload. Raw size is the
// conservative proxy for payload size (the codecs frame their output
// within the raw footprint for all supported algorithms). The floor of
// one row stands even when a single row exceeds the cap — chunks cannot
// split rows — which the decode side then reports per frame.
func defaultChunkRows(rows, rowStride int, maxChunkBytes int64) int {
	targetElems := int64(256 << 10)
	if maxChunkBytes > 0 {
		if byElems := maxChunkBytes / 8; byElems < targetElems {
			targetElems = byElems
		}
	}
	cr := targetElems / int64(rowStride)
	if cr < 1 {
		cr = 1
	}
	if cr > int64(rows) {
		cr = int64(rows)
	}
	return int(cr) // bounded by rows and the 256Ki-element target
}

// orDefault returns ctx, or context.Background for nil.
func orDefault(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// ctxCause labels a context's error for pipeline failure reporting.
func ctxCause(ctx context.Context) error {
	return fmt.Errorf("repro: stream cancelled: %w", context.Cause(ctx))
}

// CompressStreamOpts reads a raw little-endian float field of the given
// dims from r, compresses it chunk by chunk under the point-wise
// relative bound, and writes a framed stream container (decodable by
// DecompressStreamOpts) to w. Peak memory is O(workers × chunk), not
// O(field) — and WithMemoryBudget turns that into an explicit byte
// target by deriving the unset chunk-rows/worker knobs. The chunk
// payloads are ordinary Compress streams of dims[0]-row slices.
// Elements are float64 unless WithFloat32 selects the narrow input
// width (widened exactly, identical container bytes).
func CompressStreamOpts(r io.Reader, w io.Writer, dims []int, relBound float64, algo Algorithm, opts ...StreamOption) (*StreamStats, error) {
	return compressStream(resolveStreamConfig(opts), r, w, dims, relBound, algo)
}

// compressStream is the pipeline behind every stream-compress entry
// point, driven by a resolved StreamConfig.
func compressStream(cfg *StreamConfig, r io.Reader, w io.Writer, dims []int, relBound float64, algo Algorithm) (*StreamStats, error) {
	ctx := orDefault(cfg.Ctx)
	if err := grid.Validate(dims, -1); err != nil {
		return nil, err
	}
	if algo == SZABS || algo == ZFPACC {
		return nil, ErrNeedsAbsolute
	}
	rows := dims[0]
	rowStride := grid.Size(dims) / rows
	if cfg.ParityK < 0 || cfg.ParityK > streamfmt.MaxParityK {
		return nil, fmt.Errorf("repro: parity group size %d out of [0,%d]", cfg.ParityK, streamfmt.MaxParityK)
	}
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("repro: negative memory budget %d", cfg.MemoryBudget)
	}
	parityK := cfg.ParityK
	verify := cfg.VerifyOnWrite
	copts := cfg.Compressor
	elemSize := 8
	if cfg.Float32 {
		elemSize = 4
	}
	tune := *cfg // clamp a copy: the caller's config may be reused across fields
	if tune.ChunkRows > rows {
		tune.ChunkRows = rows
	}
	chunkRows, workers := tuneCompressBudget(&tune, rowStride, elemSize, cfg.defaultWorkers())
	if chunkRows <= 0 {
		chunkRows = defaultChunkRows(rows, rowStride, cfg.Limits.maxChunkBytes())
	}
	if chunkRows > rows {
		chunkRows = rows
	}
	chunkElems := chunkRows * rowStride
	if chunkElems > 1<<28 {
		return nil, fmt.Errorf("repro: chunk of %d elements exceeds the 2 GiB chunk budget; reduce ChunkRows", chunkElems)
	}

	cw := &countingWriter{w: w}
	sw, err := streamfmt.NewWriter(cw,
		streamfmt.Header{Algo: byte(algo), Dims: dims, ChunkRows: chunkRows, ParityK: parityK})
	if err != nil {
		return nil, err
	}

	// BytesIn and BuffersAllocated are counted on the producer
	// goroutine, Chunks on the consumer; runChunkPool orders both before
	// its return.
	stats := &StreamStats{}
	free := make(chan []float64, workers+2)
	raw := make([]byte, chunkElems*elemSize)
	var verified atomic.Int64
	seq, row := 0, 0
	pt, err := runChunkPool(ctx, workers,
		func() (compressJob, error) {
			if row == rows {
				return compressJob{}, io.EOF
			}
			n := min(chunkRows, rows-row)
			var data []float64
			select {
			case data = <-free:
			default:
				stats.BuffersAllocated++
				// The in-flight cap bounds this to workers+2 buffers.
				data = make([]float64, chunkElems)
			}
			data = data[:n*rowStride]
			want := n * rowStride * elemSize
			if _, err := io.ReadFull(r, raw[:want]); err != nil {
				return compressJob{}, fmt.Errorf("repro: short stream input at row %d/%d: %w", row, rows, err)
			}
			stats.BytesIn += int64(want)
			if elemSize == 8 {
				for i := range data {
					data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
				}
			} else {
				for i := range data {
					data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
				}
			}
			jb := compressJob{seq: seq, data: data, rows: n}
			seq++
			row += n
			return jb, nil
		},
		func(jb *compressJob) error {
			subDims := append([]int{jb.rows}, dims[1:]...)
			out, err := Compress(jb.data, subDims, relBound, algo, copts)
			if err == nil && verify {
				err = verifyChunk(out, jb.data, subDims, relBound, algo)
				if err == nil {
					verified.Add(1)
				}
			}
			if err != nil {
				return fmt.Errorf("chunk %d: %w", jb.seq, err)
			}
			jb.out = out
			return nil
		},
		func(jb *compressJob) error {
			if err := sw.WriteChunk(jb.out); err != nil {
				return fmt.Errorf("chunk %d: %w", jb.seq, err)
			}
			stats.Chunks++
			select {
			case free <- jb.data:
			default:
			}
			return nil
		})
	stats.ReadWall, stats.CodecWall, stats.WriteWall = pt.read, pt.codec, pt.write
	stats.MaxInFlight = pt.maxInFlight
	stats.VerifiedChunks = int(verified.Load())
	if err == nil {
		t0 := time.Now()
		err = sw.Finish()
		stats.WriteWall += time.Since(t0)
	}
	stats.ParityFrames = sw.ParityWritten()
	stats.BytesOut = cw.n
	return stats, err
}

// checkChunkShape checks that a decoded chunk — shape got, n values —
// is the rows-row slab of a field of the given dims that its container
// promises: the field's rank, exactly rows rows, the field's trailing
// dims, and rows × stride values. Every chunk decoder applies it, so a
// chunk whose CRC verifies but whose payload describes another geometry
// is rejected on every path alike.
func checkChunkShape(got []int, n, rows int, dims []int) error {
	ok := len(got) > 0 && len(got) == len(dims) && got[0] == rows
	stride := 1
	for i := 1; ok && i < len(dims); i++ {
		ok = got[i] == dims[i]
		stride *= dims[i]
	}
	if !ok || n != rows*stride {
		return fmt.Errorf("decodes to shape %v (%d values), want %d rows of %v", got, n, rows, dims[1:])
	}
	return nil
}

// decodeChunk decompresses one chunk payload of a container whose
// field has the given dims, rejecting it as corrupt unless it holds
// exactly the promised rows (checkChunkShape).
func decodeChunk(payload []byte, rows int, dims []int) ([]float64, error) {
	dec, got, err := Decompress(payload)
	if err != nil {
		return nil, err
	}
	if err := checkChunkShape(got, len(dec), rows, dims); err != nil {
		return nil, fmt.Errorf("%w: chunk %v", ErrCorrupted, err)
	}
	return dec, nil
}

// verifyChunk decode-verifies one sealed chunk payload against the
// source rows it encodes, asserting exactly what the algorithm
// guarantees (Table IV): NaN and ±Inf always survive, exact zeros are
// preserved by the zero-preserving algorithms, and every finite normal
// nonzero original is within the point-wise relative bound unless the
// algorithm (ZFP_P) documents no hard guarantee. Subnormal originals
// are skipped — below 2^-1022 the float64 quantum makes tight relative
// bounds unsatisfiable in principle.
func verifyChunk(payload []byte, src []float64, subDims []int, relBound float64, algo Algorithm) error {
	dec, dims, err := Decompress(payload)
	if err != nil {
		return fmt.Errorf("%w: sealed chunk does not decode: %v", ErrVerifyFailed, err)
	}
	if err := checkChunkShape(dims, len(dec), subDims[0], subDims); err != nil {
		return fmt.Errorf("%w: sealed chunk %v", ErrVerifyFailed, err)
	}
	preserveZeros := algo == SZT || algo == ZFPT || algo == FPZIP || algo == ISABELA
	checkBound := algo != ZFPP
	const smallestNormal = 2.2250738585072014e-308 // 2^-1022
	for i, o := range src {
		d := dec[i]
		switch {
		case math.IsNaN(o):
			if !math.IsNaN(d) {
				return fmt.Errorf("%w: NaN at element %d decoded to %g", ErrVerifyFailed, i, d)
			}
		case math.IsInf(o, 0):
			if !floatbits.Equal(d, o) {
				return fmt.Errorf("%w: %g at element %d decoded to %g", ErrVerifyFailed, o, i, d)
			}
		case floatbits.IsZero(o):
			if preserveZeros && !floatbits.IsZero(d) {
				return fmt.Errorf("%w: zero at element %d perturbed to %g", ErrVerifyFailed, i, d)
			}
		case math.Abs(o) < smallestNormal:
			// Subnormal original: no relative guarantee to assert.
		default:
			if checkBound && math.Abs(d-o) > relBound*(1+1e-9)*math.Abs(o) {
				return fmt.Errorf("%w: bound %g violated at element %d: orig %g decoded %g",
					ErrVerifyFailed, relBound, i, o, d)
			}
		}
	}
	return nil
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DecompressStreamOpts decodes a stream container from r, writing the
// field as raw little-endian float bytes (float64, or float32 under
// WithFloat32) to w. Chunks are decompressed by a worker pool and
// emitted in field order; peak memory is O(workers × chunk), and
// WithMemoryBudget caps the worker count against the container's chunk
// geometry. WithLimits is enforced against the header and every chunk
// frame before the corresponding allocation; WithContext cancellation —
// like an error from w — stops the reader from pulling further frames
// beyond those already in flight, drains the worker pool, and returns
// with no goroutines left behind.
func DecompressStreamOpts(r io.Reader, w io.Writer, opts ...StreamOption) (*StreamStats, error) {
	cfg := resolveStreamConfig(opts)
	stats, _, err := decompressStream(cfg, r, rawSink(w, cfg.Float32))
	return stats, err
}

// DecompressStream is DecompressStreamOpts with no options: it decodes
// a stream container from r into raw little-endian float64 bytes on w,
// on GOMAXPROCS workers and without decode limits.
func DecompressStream(r io.Reader, w io.Writer) (*StreamStats, error) {
	return DecompressStreamOpts(r, w)
}

// rawSink returns a decode sink that writes each chunk's values to w as
// raw little-endian floats (float32 when narrow), through one buffer
// reused across chunks, and reports the bytes written.
func rawSink(w io.Writer, narrow bool) func(vals []float64) (int64, error) {
	var out []byte
	return func(vals []float64) (int64, error) {
		need := len(vals) * 8
		if narrow {
			need = len(vals) * 4
		}
		if cap(out) < need {
			out = make([]byte, need)
		}
		out = out[:need]
		if narrow {
			for i, v := range vals {
				binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(float32(v)))
			}
		} else {
			for i, v := range vals {
				binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
			}
		}
		_, err := w.Write(out)
		return int64(need), err
	}
}

// decompressStream is the decode pipeline behind every sequential
// stream-decode entry point, driven by a resolved StreamConfig: it hands
// each chunk's values, in field order, to emit, which reports the bytes
// it produced. It returns the field dims from the container header.
func decompressStream(cfg *StreamConfig, r io.Reader, emit func(vals []float64) (int64, error)) (_ *StreamStats, _ []int, err error) {
	defer recoverDecode(&err)
	ctx := orDefault(cfg.Ctx)
	elemSize := 8
	if cfg.Float32 {
		elemSize = 4
	}
	if cfg.MemoryBudget < 0 {
		return nil, nil, fmt.Errorf("repro: negative memory budget %d", cfg.MemoryBudget)
	}
	sr, err := streamfmt.NewReaderLimits(r, cfg.Limits.streamLimits())
	if err != nil {
		return nil, nil, err
	}
	hdr := sr.Header()
	expChunks := hdr.Chunks()
	workers := cfg.defaultWorkers()
	if cfg.Workers <= 0 && cfg.MemoryBudget > 0 {
		// The chunk geometry is the container's, so the budget can only
		// temper the worker count here.
		workers = budgetWorkersFor(cfg.MemoryBudget, hdr.ChunkRows*hdr.RowStride(), elemSize, workers)
	}
	if workers > expChunks {
		workers = expChunks
	}

	// As on the compress path, BuffersAllocated is counted on the
	// producer goroutine and Chunks/BytesOut on the consumer.
	stats := &StreamStats{}
	free := make(chan []byte, workers+2)
	seq := 0
	pt, err := runChunkPool(ctx, workers,
		func() (decodeJob, error) {
			var scratch []byte
			select {
			case scratch = <-free:
			default:
			}
			// The reader holds the frames to the header's chunk count and
			// returns io.EOF, ending the pipeline, only once the index
			// after the last chunk has verified.
			payload, err := sr.Next(scratch)
			if err != nil {
				return decodeJob{}, err
			}
			if len(payload) > cap(scratch) {
				stats.BuffersAllocated++ // streamfmt grew a fresh payload buffer
			}
			// The payload may alias scratch; the job owns it until decoded.
			jb := decodeJob{seq: seq, in: payload, buf: payload}
			seq++
			return jb, nil
		},
		decodeStep(&hdr, free),
		func(jb *decodeJob) error {
			n, err := emit(jb.dec)
			if err != nil {
				return fmt.Errorf("chunk %d: %w", jb.seq, err)
			}
			stats.Chunks++
			stats.BytesOut += n
			return nil
		})
	stats.ReadWall, stats.CodecWall, stats.WriteWall = pt.read, pt.codec, pt.write
	stats.MaxInFlight = pt.maxInFlight
	stats.BytesIn = sr.Consumed()
	stats.ParityFrames = sr.ParityRead()
	return stats, hdr.Dims, err
}

// decodeStep is the codec step of both 0xC8 decode paths, sequential
// (decompressStream) and seekable (StreamHandle.readRows): it decodes
// one chunk of the container hdr describes and hands the chunk's frame
// buffer back to free for the producer to reuse.
func decodeStep(hdr *streamfmt.Header, free chan<- []byte) func(*decodeJob) error {
	return func(jb *decodeJob) error {
		dec, err := decodeChunk(jb.in, hdr.ChunkRowCount(jb.seq), hdr.Dims)
		select {
		case free <- jb.buf:
		default:
		}
		if err != nil {
			return fmt.Errorf("chunk %d: %w", jb.seq, err)
		}
		jb.dec = dec
		return nil
	}
}

// IsStreamContainer reports whether buf starts a CompressStreamOpts
// container (either the parity-free or the parity-carrying version).
func IsStreamContainer(buf []byte) bool {
	return len(buf) >= 2 && buf[0] == streamfmt.Magic &&
		(buf[1] == streamfmt.Version || buf[1] == streamfmt.VersionParity)
}

// decompressStreamBuf decodes an in-memory stream container (the
// convenience path behind DecompressAny) through the same pipeline as
// DecompressStreamOpts, collecting values rather than bytes. The output
// grows with the decoded chunks and is never sized from the header.
func decompressStreamBuf(buf []byte, limits *DecodeLimits) ([]float64, []int, error) {
	var data []float64
	_, dims, err := decompressStream(resolveStreamConfig([]StreamOption{WithLimits(limits)}), bytes.NewReader(buf),
		func(vals []float64) (int64, error) {
			data = append(data, vals...)
			return int64(len(vals)) * 8, nil
		})
	if err != nil {
		return nil, nil, err
	}
	return data, dims, nil
}
