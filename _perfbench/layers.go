package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/streamfmt"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// The traced run's layer replay. Every call below goes through a layer's
// public functions on the workload's own chunks, each inside a span; the
// per-layer metrics are derived from the spans' self times.

// szIntervals is SZ's default quantization capacity, the one the
// compressor uses when no options are given.
const szIntervals = 65536

// replayReps repeats the container-level replays, whose calls are short.
const replayReps = 5

// chunkRef is one chunk of a workload's data as its end-to-end path
// handled it.
type chunkRef struct {
	data   []float64 // original values (widened from data32 when set)
	data32 []float32 // float32 originals of a float32 workload, else nil
	dims   []int
	// got is the end-to-end read of the same values (widened from
	// float32 when data32 is set).
	got []float64
	// payload is the chunk's payload in the workload's container, or nil
	// when the workload keeps no container of chunks.
	payload []byte
}

// replayChunks replays every chunk through the layers and records the
// core, quant, huffman, sz and zfp metrics plus the share of a
// single-worker Compress/Decompress the layer spans do not cover. A
// chunk the replay does not rebuild bit-identically to the end-to-end
// read counts as a failed operation.
func (r *runner) replayChunks(chunks []chunkRef, algo repro.Algorithm) {
	var szAlloc uint64
	for i, c := range chunks {
		alloc, err := r.replayChunk(int64(i), c, algo)
		szAlloc += alloc
		r.op(fmt.Sprintf("replay of chunk %d", i), err)
	}
	lt := r.tr.selfTimes()
	get := func(name string) *layerTime {
		if t := lt[name]; t != nil {
			return t
		}
		return &layerTime{}
	}
	perValue := func(name string) float64 { t := get(name); return t.selfNS / float64(max(t.units, 1)) }
	perChunkUS := func(name string) float64 { t := get(name); return t.selfNS / 1e3 / float64(max(t.count, 1)) }

	n := float64(len(chunks))
	r.set("core.forward_ns_per_value", perValue("core.forward"))
	r.set("core.inverse_ns_per_value", perValue("core.inverse"))
	r.set("quant.predict_quantize_ns_per_value", perValue("quant.predict_quantize"))
	r.set("huffman.encode_ns_per_value", perValue("huffman.encode"))
	r.set("huffman.decode_ns_per_value", perValue("huffman.decode"))
	r.set("huffman.decode_us_per_chunk", perChunkUS("huffman.decode"))
	r.set("sz.compress_us_per_chunk", perChunkUS("sz.compress"))
	r.set("sz.decompress_us_per_chunk", perChunkUS("sz.decompress"))
	r.set("sz.lossless_us_per_chunk", perChunkUS("sz.compress")-perChunkUS("sz.compress_lossless_off"))
	r.set("sz.alloc_bytes_per_chunk", float64(szAlloc)/n)
	r.set("zfp.compress_ns_per_value", perValue("zfp.compress"))
	r.set("zfp.decompress_ns_per_value", perValue("zfp.decompress"))

	backend := "sz"
	if algo == repro.ZFPT {
		backend = "zfp"
	}
	whole := get("replay.compress").selfNS + get("replay.decompress").selfNS
	layers := get("core.forward").selfNS + get(backend+".compress").selfNS +
		get(backend+".decompress").selfNS + get("core.inverse").selfNS
	r.set("trace.unattributed_frac", 1-layers/whole)
}

// replayChunk runs one chunk through a single-worker Compress/Decompress
// and then through each layer, returning the heap bytes sz.CompressAbs
// allocated.
func (r *runner) replayChunk(op int64, c chunkRef, algo repro.Algorithm) (uint64, error) {
	tr := r.tr
	n := int64(len(c.data))
	var payload []byte
	var err error
	s := tr.begin("replay.compress", op, n)
	if c.data32 != nil {
		payload, err = repro.Compress32(c.data32, c.dims, relBound, algo, nil)
	} else {
		payload, err = repro.Compress(c.data, c.dims, relBound, algo, nil)
	}
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("repro.Compress: %w", err)
	}
	if c.payload != nil && !bytes.Equal(payload, c.payload) {
		return 0, errors.New("single-worker Compress differs from the container's chunk payload")
	}
	var whole []float64
	var whole32 []float32
	s = tr.begin("replay.decompress", op, n)
	if c.data32 != nil {
		whole32, _, err = repro.Decompress32(payload)
	} else {
		whole, _, err = repro.Decompress(payload)
	}
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("repro.Decompress: %w", err)
	}
	if c.data32 != nil {
		whole = widen(nil, whole32)
	}
	if err := checkIdentical(c.got, whole); err != nil {
		return 0, fmt.Errorf("single-worker Decompress differs from the end-to-end read: %w", err)
	}

	s = tr.begin("core.forward", op, n)
	tf, err := core.Forward(c.data, relBound, nil)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("core.Forward: %w", err)
	}
	hdr := tf.AppendHeader(nil)

	s = tr.begin("quant.predict_quantize", op, n)
	codes, alphabet, err := predictQuantize(tf.Log, c.dims, tf.AbsBound)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("huffman.encode", op, n)
	enc, err := huffman.EncodeAll(codes, alphabet)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("huffman.EncodeAll: %w", err)
	}
	s = tr.begin("huffman.decode", op, n)
	dec, used, err := huffman.DecodeAll(enc)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("huffman.DecodeAll: %w", err)
	}
	if used != len(enc) || len(dec) != len(codes) {
		return 0, errors.New("huffman.DecodeAll did not consume its own encoding")
	}
	for i := range codes {
		if dec[i] != codes[i] {
			return 0, fmt.Errorf("huffman round trip differs at symbol %d", i)
		}
	}

	a0 := totalAlloc()
	s = tr.begin("sz.compress", op, n)
	szBuf, err := sz.CompressAbs(tf.Log, c.dims, tf.AbsBound, nil)
	tr.end(s)
	alloc := totalAlloc() - a0
	if err != nil {
		return 0, fmt.Errorf("sz.CompressAbs: %w", err)
	}
	s = tr.begin("sz.compress_lossless_off", op, n)
	_, err = sz.CompressAbs(tf.Log, c.dims, tf.AbsBound, &sz.Options{Lossless: sz.LosslessOff})
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("sz.CompressAbs without lossless stage: %w", err)
	}
	s = tr.begin("sz.decompress", op, n)
	szLog, _, err := sz.Decompress(szBuf)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("sz.Decompress: %w", err)
	}
	s = tr.begin("zfp.compress", op, n)
	zBuf, err := zfp.CompressAccuracy(tf.Log, c.dims, tf.AbsBound)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("zfp.CompressAccuracy: %w", err)
	}
	s = tr.begin("zfp.decompress", op, n)
	zLog, _, err := zfp.Decompress(zBuf)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("zfp.Decompress: %w", err)
	}

	logDec := szLog
	if algo == repro.ZFPT {
		logDec = zLog
	}
	var rec []float64
	s = tr.begin("core.inverse", op, n)
	si, _, err := core.ParseHeader(hdr)
	if err == nil {
		rec, err = si.Inverse(logDec, nil)
	}
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("core inverse: %w", err)
	}
	if c.data32 != nil {
		for i, v := range rec {
			rec[i] = float64(float32(v))
		}
	}
	if r.cfg.corrupt {
		perturb(rec)
	}
	if err := checkIdentical(c.got, rec); err != nil {
		return 0, fmt.Errorf("layer replay differs from the end-to-end read: %w", err)
	}
	return alloc, nil
}

// predictQuantize drives the Lorenzo predictor and the linear-scaling
// quantizer over a transformed chunk the way SZ's compressor does,
// returning the quantization codes and their alphabet size. An
// unpredictable point is kept exactly here (SZ stores a truncated copy),
// so the codes after one may differ from SZ's own.
func predictQuantize(data []float64, dims []int, bound float64) ([]int, int, error) {
	recon := make([]float64, len(data))
	field, err := predictor.NewField(recon, dims)
	if err != nil {
		return nil, 0, fmt.Errorf("predictor.NewField: %w", err)
	}
	q := quant.New(bound, szIntervals)
	codes := make([]int, len(data))
	field.Walk(func(lin int, coord []int) {
		v := data[lin]
		code, rec, ok := q.Quantize(v, field.Predict(lin, coord))
		if !ok {
			code, rec = quant.Unpredictable, v
		}
		codes[lin] = code
		recon[lin] = rec
	})
	return codes, q.Alphabet(), nil
}

// replayContainers replays the container layer over the workload's real
// stream containers: OpenIndex, a FrameReader pass over every chunk, and
// a Writer that re-frames the payloads, which must rebuild each container
// byte for byte. It returns every container's header and chunk payloads.
func (r *runner) replayContainers(containers [][]byte) ([]replayed, error) {
	tr := r.tr
	out := make([]replayed, len(containers))
	var parity, total int64
	for rep := 0; rep < replayReps; rep++ {
		for i, c := range containers {
			op := int64(i)
			s := tr.begin("streamfmt.open_index", op, 1)
			ix, err := streamfmt.OpenIndex(bytes.NewReader(c), streamfmt.Limits{})
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("streamfmt.OpenIndex: %w", err)
			}
			n := ix.Chunks()
			off, _ := ix.FrameExtent(0)
			src := bytes.NewReader(c)
			if _, err := src.Seek(off, io.SeekStart); err != nil {
				return nil, err
			}
			payloads := make([][]byte, 0, n)
			s = tr.begin("streamfmt.frame_read", op, int64(n))
			fr := ix.Frames(src, 0, n)
			for err == nil {
				var p []byte
				if p, _, _, err = fr.Next(nil); err == nil {
					payloads = append(payloads, p)
				}
			}
			tr.end(s)
			if err != io.EOF {
				return nil, fmt.Errorf("streamfmt.FrameReader: %w", err)
			}
			var buf bytes.Buffer
			buf.Grow(len(c))
			s = tr.begin("streamfmt.write", op, int64(n))
			err = writeContainer(&buf, ix.Hdr, payloads)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(buf.Bytes(), c) {
				return nil, fmt.Errorf("re-framed container %d differs from the original", i)
			}
			if rep == 0 {
				out[i] = replayed{hdr: ix.Hdr, payloads: payloads}
				for g := range ix.PLens {
					o, e := ix.ParityExtent(g)
					parity += e - o
				}
				total += ix.Size
			}
		}
	}
	lt := tr.selfTimes()
	perUnit := func(name string) float64 { t := lt[name]; return t.selfNS / 1e3 / float64(max(t.units, 1)) }
	r.set("streamfmt.write_us_per_chunk", perUnit("streamfmt.write"))
	r.set("streamfmt.open_index_us", perUnit("streamfmt.open_index"))
	r.set("streamfmt.frame_read_us_per_chunk", perUnit("streamfmt.frame_read"))
	r.set("streamfmt.parity_bytes_frac", float64(parity)/float64(total))
	return out, nil
}

// replayed is one container as the container replay parsed it.
type replayed struct {
	hdr      streamfmt.Header
	payloads [][]byte
}

// writeContainer frames payloads into a stream container with header h.
func writeContainer(w io.Writer, h streamfmt.Header, payloads [][]byte) error {
	sw, err := streamfmt.NewWriter(w, h)
	if err != nil {
		return fmt.Errorf("streamfmt.NewWriter: %w", err)
	}
	for _, p := range payloads {
		if err := sw.WriteChunk(p); err != nil {
			return fmt.Errorf("streamfmt.WriteChunk: %w", err)
		}
	}
	if err := sw.Finish(); err != nil {
		return fmt.Errorf("streamfmt.Finish: %w", err)
	}
	return nil
}

// pipeStats accumulates the root pipeline's own counters (the StreamStats
// that compress calls return and the StreamHandle.Stats of range reads)
// over a traced run.
type pipeStats struct {
	codecNS, capacityNS    float64 // Σ CodecWall; Σ wall × workers
	writeWall, readWall    time.Duration
	writeCalls, readCalls  int
	maxInFlight, buffers   int
	chunks, fetched        int64
	decodedVals, returnVal int64
	closeUS, openUS        []float64
	directoryBytes         int
}

// addWrite folds one compress call's stats, wall its duration.
func (p *pipeStats) addWrite(st *repro.StreamStats, wall time.Duration) {
	p.codecNS += float64(st.CodecWall)
	p.capacityNS += float64(wall) * workers
	p.writeWall += st.WriteWall
	p.writeCalls++
	p.maxInFlight = max(p.maxInFlight, st.MaxInFlight)
	p.buffers = max(p.buffers, st.BuffersAllocated)
}

// addRead folds one range read: the handle's counters before and after
// it, its duration, the chunks the read must touch and the values they
// decode. The handle's chunk count must match the expected one exactly.
func (p *pipeStats) addRead(before, after repro.StreamStats, wall time.Duration, chunks, decoded int64, elemSize int64) error {
	if got := int64(after.Chunks - before.Chunks); got != chunks {
		return fmt.Errorf("read decoded %d chunks, the range touches %d", got, chunks)
	}
	p.codecNS += float64(after.CodecWall - before.CodecWall)
	p.capacityNS += float64(wall) * workers
	p.readWall += after.ReadWall - before.ReadWall
	p.readCalls++
	p.maxInFlight = max(p.maxInFlight, after.MaxInFlight)
	p.buffers = max(p.buffers, after.BuffersAllocated-before.BuffersAllocated)
	p.chunks += chunks
	p.fetched += after.BytesIn - before.BytesIn
	p.decodedVals += decoded
	p.returnVal += (after.BytesOut - before.BytesOut) / elemSize
	return nil
}

// touched returns the chunks a read of rows [start, start+count) decodes
// and the values they hold, for chunks of chunkRows rows of stride values
// over rows rows.
func touched(start, count, chunkRows, rows, stride int) (chunks, values int64) {
	c0, c1 := start/chunkRows, (start+count-1)/chunkRows+1
	return int64(c1 - c0), int64((min(c1*chunkRows, rows) - c0*chunkRows) * stride)
}

// report records the stream, seek and archive metrics.
func (p *pipeStats) report(r *runner) {
	r.set("stream.codec_busy_frac", p.codecNS/p.capacityNS)
	r.set("stream.write_wall_s", p.writeWall.Seconds()/float64(max(p.writeCalls, 1)))
	r.set("stream.read_wall_s", p.readWall.Seconds()/float64(max(p.readCalls, 1)))
	r.set("stream.max_in_flight", float64(p.maxInFlight))
	r.set("stream.buffers_allocated", float64(p.buffers))
	reads := float64(max(p.readCalls, 1))
	r.set("seek.chunks_per_read", float64(p.chunks)/reads)
	r.set("seek.fetched_bytes_per_read", float64(p.fetched)/reads)
	r.set("seek.decoded_values_per_returned_value", float64(p.decodedVals)/float64(max(p.returnVal, 1)))
	r.set("archive.close_us", median(p.closeUS))
	r.set("archive.open_us", median(p.openUS))
	r.set("archive.directory_bytes", float64(p.directoryBytes))
}

// spanDur returns a closed span's duration.
func (t *tracer) spanDur(id int32) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// directoryBytes reads the directory length from a v3 archive's trailer
// (directory CRC, blob CRC, then the big-endian directory length).
func directoryBytes(archive []byte) int {
	if len(archive) < 8 {
		return 0
	}
	return int(binary.BigEndian.Uint64(archive[len(archive)-8:]))
}

// replayArchive seals already-compressed stream containers into a v3
// archive and opens it again, for workloads whose end-to-end path does
// not use archives.
func (r *runner) replayArchive(p *pipeStats, names []string, containers [][]byte) error {
	tr := r.tr
	for rep := 0; rep < replayReps; rep++ {
		var buf bytes.Buffer
		aw, err := repro.NewArchiveStreamWriter(&buf)
		if err != nil {
			return err
		}
		for i, c := range containers {
			if err := aw.AddCompressed(names[i], c); err != nil {
				return fmt.Errorf("archive AddCompressed: %w", err)
			}
		}
		s := tr.begin("archive.close", int64(rep), 0)
		err = aw.Close()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("archive Close: %w", err)
		}
		p.closeUS = append(p.closeUS, float64(tr.spanDur(s))/1e3)
		s = tr.begin("archive.open", int64(rep), 0)
		ar, err := repro.OpenArchiveStream(bytes.NewReader(buf.Bytes()))
		tr.end(s)
		if err != nil {
			return fmt.Errorf("OpenArchiveStream: %w", err)
		}
		p.openUS = append(p.openUS, float64(tr.spanDur(s))/1e3)
		if got := ar.Fields(); len(got) != len(names) {
			return fmt.Errorf("archive lists %d fields, want %d", len(got), len(names))
		}
		p.directoryBytes = directoryBytes(buf.Bytes())
	}
	return nil
}
