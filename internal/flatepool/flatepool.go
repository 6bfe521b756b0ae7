// Package flatepool runs DEFLATE over in-memory buffers with reused
// compressor and decompressor state. A BestSpeed flate.Writer carries
// about 1.2 MB of window and match tables and a reader about 40 KB;
// built for every chunk, they would be the largest allocation on the
// chunked SZ and sign-bitmap paths. A reset writer produces the same
// bytes as a new one.
//
// Readers are small and live in a sync.Pool. Writers are not: a
// sync.Pool keeps one per P, plus the previous GC cycle's, and every
// live megabyte raises the GC target by another. Instead one idle writer
// is kept. A chunk spends a small share of its codec time in Deflate, so
// that writer serves most calls; a call that finds it taken builds its
// own, which is kept only if the slot is free again when it finishes.
package flatepool

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"sync"
)

// ErrTooLarge reports a DEFLATE stream that inflates past its limit.
var ErrTooLarge = errors.New("flatepool: inflated data exceeds limit")

// appender is an io.Writer that appends to a slice.
type appender struct{ b []byte }

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

type compressor struct {
	zw   *flate.Writer
	sink appender
}

type decompressor struct {
	zr  io.ReadCloser // implements flate.Resetter
	src bytes.Reader
}

var (
	idleCompressor = make(chan *compressor, 1)
	decompressors  sync.Pool
)

// Deflate returns the BestSpeed DEFLATE encoding of src.
func Deflate(src []byte) ([]byte, error) {
	var c *compressor
	select {
	case c = <-idleCompressor:
	default:
	}
	if c == nil {
		c = new(compressor)
		zw, err := flate.NewWriter(&c.sink, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		c.zw = zw
	} else {
		c.zw.Reset(&c.sink)
	}
	c.sink.b = make([]byte, 0, len(src)/2+64)
	_, err := c.zw.Write(src)
	if err == nil {
		err = c.zw.Close()
	}
	out := c.sink.b
	c.sink.b = nil
	select {
	case idleCompressor <- c:
	default:
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Inflate decodes the DEFLATE stream src. It fails with ErrTooLarge as
// soon as the output would exceed limit bytes, so a small stream cannot
// demand a large allocation.
func Inflate(src []byte, limit int) ([]byte, error) {
	d, _ := decompressors.Get().(*decompressor)
	if d == nil {
		d = new(decompressor)
		d.src.Reset(src)
		d.zr = flate.NewReader(&d.src)
	} else {
		d.src.Reset(src)
		if err := d.zr.(flate.Resetter).Reset(&d.src, nil); err != nil {
			return nil, err
		}
	}
	out, err := readUpTo(d.zr, limit, min(limit, 2*len(src))+512)
	d.src.Reset(nil)
	decompressors.Put(d)
	return out, err
}

// readUpTo reads r to EOF into a buffer of initial capacity hint, failing
// with ErrTooLarge once more than limit bytes arrive.
func readUpTo(r io.Reader, limit, hint int) ([]byte, error) {
	buf := make([]byte, 0, hint)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return nil, ErrTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
