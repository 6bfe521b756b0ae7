package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/bitio"
	"repro/internal/grid"
)

// The parallel container (magic 0xC6) is a decode-only legacy format.
// Earlier versions of this package wrote it from an in-memory worker
// pool: the field was split into chunks along the slowest dimension,
// each chunk compressed independently into an ordinary Compress stream,
// and the chunks concatenated behind a length table:
//
//	container := magic(0xC6) algo uvarint(rank) uvarint(dim)*
//	             uvarint(chunks) uvarint(chunk len)* chunk*
//
// The stream container (0xC8, CompressStreamOpts) replaced it with the
// same chunking plus CRCs, an index, parity and seekable reads. Existing
// 0xC6 bytes stay readable through DecompressAny/DecompressAnyLimits and
// as archive fields; their chunks decode through the same chunk pipeline
// as the stream paths (runChunkPool, pipeline.go).

const parallelMagic = 0xC6

// isParallelContainer reports whether buf starts a legacy 0xC6
// parallel container.
func isParallelContainer(buf []byte) bool {
	return len(buf) >= 2 && buf[0] == parallelMagic
}

// decompressParallel decodes a legacy 0xC6 container on GOMAXPROCS
// workers. limits (nil = unlimited) is enforced against the declared
// geometry and every chunk length before any input-derived allocation
// or chunk decode; ctx cancels the pool after at most the chunks already
// in flight.
func decompressParallel(ctx context.Context, buf []byte, limits *DecodeLimits) (_ []float64, _ []int, err error) {
	defer recoverDecode(&err)
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("%w: %d-byte parallel container", ErrTruncated, len(buf))
	}
	if buf[0] != parallelMagic {
		return nil, nil, fmt.Errorf("%w: leading byte 0x%02x is not a parallel container", ErrUnsupportedFormat, buf[0])
	}
	off := 2
	rankU, k := bitio.Uvarint(buf[off:])
	if k == 0 || rankU == 0 || rankU > grid.MaxDims {
		return nil, nil, fmt.Errorf("%w: rank %d", ErrCorrupt, rankU)
	}
	off += k
	dims := make([]int, rankU)
	for i := range dims {
		d, k := bitio.Uvarint(buf[off:])
		if k == 0 || d == 0 || d > 1<<40 {
			return nil, nil, fmt.Errorf("%w: dimension %d", ErrCorrupt, d)
		}
		dims[i] = int(d)
		off += k
	}
	if err := grid.Validate(dims, -1); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := limits.checkElements(int64(grid.Size(dims))); err != nil {
		return nil, nil, err
	}
	chunksU, k := bitio.Uvarint(buf[off:])
	if k == 0 || chunksU == 0 || chunksU > uint64(dims[0]) {
		return nil, nil, fmt.Errorf("%w: chunk count %d", ErrCorrupt, chunksU)
	}
	off += k
	// Each chunk needs at least a one-byte length prefix, so a count
	// beyond the remaining bytes is structurally impossible — reject it
	// before sizing the length table off an attacker-declared count.
	if chunksU > uint64(len(buf)-off) {
		return nil, nil, fmt.Errorf("%w: %d chunks declared with %d bytes left", ErrCorrupt, chunksU, len(buf)-off)
	}
	chunks := int(chunksU)
	lengths := make([]int, chunks)
	total := 0
	for c := range lengths {
		l, k := bitio.Uvarint(buf[off:])
		if k == 0 || l > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("%w: chunk %d length", ErrCorrupt, c)
		}
		if err := limits.checkChunkBytes(int64(l)); err != nil {
			return nil, nil, err
		}
		off += k
		lengths[c] = int(l)
		total += int(l)
	}
	if off+total > len(buf) {
		return nil, nil, fmt.Errorf("%w: chunk lengths overrun the container", ErrTruncated)
	}

	// The output grows with the chunks as they decode, in field order,
	// rather than being sized from the header: a 12-byte container can
	// declare terabytes, and only decoded chunks prove the geometry.
	var out []float64
	starts := chunkStarts(dims[0], chunks)

	c := 0
	_, err = runChunkPool(ctx, min(runtime.GOMAXPROCS(0), chunks),
		func() (decodeJob, error) {
			if c == chunks {
				return decodeJob{}, io.EOF
			}
			jb := decodeJob{seq: c, in: buf[off : off+lengths[c]]}
			off += lengths[c]
			c++
			return jb, nil
		},
		func(jb *decodeJob) error {
			dec, err := decodeChunk(jb.in, starts[jb.seq+1]-starts[jb.seq], dims)
			if err != nil {
				return fmt.Errorf("chunk %d: %w", jb.seq, err)
			}
			jb.dec = dec
			return nil
		},
		func(jb *decodeJob) error {
			out = append(out, jb.dec...)
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return out, dims, nil
}

// chunkStarts splits `rows` into `chunks` nearly equal ranges, returning
// chunks+1 boundaries — the row split the legacy parallel encoder used.
func chunkStarts(rows, chunks int) []int {
	starts := make([]int, chunks+1)
	for c := 0; c <= chunks; c++ {
		starts[c] = rows * c / chunks
	}
	return starts
}

// DecompressAny decodes a plain (0xC5), stream (0xC8) or legacy
// parallel (0xC6) container.
func DecompressAny(buf []byte) ([]float64, []int, error) {
	return DecompressAnyLimits(buf, nil)
}

// DecompressAnyLimits is DecompressAny with decode limits (nil =
// unlimited) enforced on whichever container format the buffer carries.
func DecompressAnyLimits(buf []byte, limits *DecodeLimits) (_ []float64, _ []int, err error) {
	defer recoverDecode(&err)
	if isParallelContainer(buf) {
		return decompressParallel(context.Background(), buf, limits)
	}
	if IsStreamContainer(buf) {
		return decompressStreamBuf(buf, limits)
	}
	data, dims, err := Decompress(buf)
	if err == nil {
		if lerr := limits.checkElements(int64(len(data))); lerr != nil {
			return nil, nil, lerr
		}
	}
	return data, dims, err
}
