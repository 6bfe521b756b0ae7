package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/datagen"
)

// probe: an analyst's random-access reads. The CESM-ATM cloud-fraction
// field (900×1800, exact zeros on the transform's zero-sentinel path) is
// written as SZ_T in 2-row chunks (450 chunks of 3,600 values) with
// parity 8 and opened with OpenStream; then one client runs a closed loop
// of seeded ReadRows calls of 1–4 consecutive rows at uniformly random
// starts, in batches of 250 reads, each batch after one more container
// write that gives compress_mbps its samples. Almost all the time is fixed per-chunk cost: Huffman
// table parse and LUT build, a fresh inflater, the index lookup and the
// CRC fetch — the cost that snapshot barely exercises.

const (
	probeLat, probeLon   = 900, 1800
	probeTinyLat         = 40
	probeTinyLon         = 60
	probeChunkRows       = 2
	probeMaxRows         = 4
	probeSetupRuns       = 10 // container write + OpenStream; the median is setup_s
	probeBatch           = 500
	probeMinReads        = 2000
	probeTinyMinReads    = 50
	probeReadSeedOffset  = 0x5eed
	probeTracedBatchSeed = 0x7ace
)

type probe struct {
	field     datagen.Field
	raw       []byte
	container []byte
	h         *repro.StreamHandle
	ref       []float64 // one full DecompressStream of the container
	rows      int
	stride    int
	dst       []float64
}

// read is one ReadRows request.
type read struct{ start, count int }

func runProbe(r *runner) error {
	lat, lon := probeLat, probeLon
	if r.cfg.tiny {
		lat, lon = probeTinyLat, probeTinyLon
	}
	p := &probe{field: datagen.CESMATM(lat, lon, r.cfg.seed)[0]}
	p.raw = leBytes(p.field.Data)
	p.rows, p.stride = lat, lon
	p.dst = make([]float64, probeMaxRows*lon)
	r.baseline(p.raw)

	if r.cfg.trace {
		return p.traced(r)
	}
	var setup, cMBps []float64
	for i := 0; i < probeSetupRuns; i++ {
		write, total, err := p.setup(r, nil)
		if err != nil {
			return err
		}
		setup = append(setup, total.Seconds())
		cMBps = append(cMBps, float64(len(p.raw))/1e6/write.Seconds())
	}
	r.set("setup_s", median(setup))
	r.set("ratio", float64(len(p.raw))/float64(len(p.container)))

	minReads := probeMinReads
	if r.cfg.tiny {
		minReads = probeTinyMinReads
	}
	rng := rand.New(rand.NewSource(r.cfg.seed + probeReadSeedOffset))
	var lats, dMBps []float64
	var alloc uint64
	var returned int64
	deadline := r.deadline()
	for len(lats) < minReads || time.Now().Before(deadline) {
		// Each round writes the container again (a compress sample) and
		// then reads one batch, so both see the same host conditions.
		write, _, err := p.setup(r, nil)
		if err != nil {
			return err
		}
		cMBps = append(cMBps, float64(len(p.raw))/1e6/write.Seconds())
		runtime.GC()
		batch := p.requests(rng, probeBatch)
		a0 := totalAlloc()
		ls, bytesOut := p.readBatch(r, nil, batch)
		alloc += totalAlloc() - a0
		returned += bytesOut
		lats = append(lats, ls...)
		dMBps = append(dMBps, float64(bytesOut)/1e6/sumOf(ls))
	}
	r.setLatency(lats)
	r.set("compress_mbps", median(cMBps))
	r.set("decompress_mbps", median(dMBps))
	r.set("alloc_bytes_per_byte", float64(alloc)/float64(returned))
	r.notef("%d reads of 1-%d rows in %d batches, %d container writes", len(lats), probeMaxRows, len(dMBps), len(cMBps))
	return nil
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// setup writes the container and opens it, returning the write time and
// the total. The first setup also decodes the reference every read is
// checked against; later setups must rebuild the same container bytes.
// With pipe non-nil the calls are traced and the write's stats folded
// into pipe.
func (p *probe) setup(r *runner, pipe *pipeStats) (write, total time.Duration, err error) {
	var buf bytes.Buffer
	tr := r.tr
	if pipe == nil {
		tr = nil
	}
	s := tr.begin("stream.compress", 0, int64(len(p.field.Data)))
	t0 := time.Now()
	st, err := repro.CompressStreamOpts(bytes.NewReader(p.raw), &buf, p.field.Dims, relBound, repro.SZT,
		repro.WithWorkers(workers), repro.WithChunkRows(probeChunkRows), repro.WithParity(parityK))
	write = time.Since(t0)
	tr.end(s)
	var h *repro.StreamHandle
	if err == nil {
		s = tr.begin("stream.open", 0, 0)
		h, err = repro.OpenStream(bytes.NewReader(buf.Bytes()), repro.WithWorkers(workers))
		tr.end(s)
	}
	total = time.Since(t0)
	if err != nil {
		r.op("probe container write", err)
		return 0, 0, fmt.Errorf("setup: %w", err)
	}
	if pipe != nil {
		pipe.addWrite(st, write)
	}
	if p.container == nil {
		p.container, p.h = buf.Bytes(), h
		r.op("probe reference decode", p.decodeReference())
		return write, total, nil
	}
	if !bytes.Equal(buf.Bytes(), p.container) {
		err = fmt.Errorf("container write is not deterministic")
	}
	r.op("probe container write", err)
	p.h = h
	return write, total, nil
}

// decodeReference decodes the whole container once with DecompressStream
// and checks it against the bound; every read must equal its rows.
func (p *probe) decodeReference() error {
	var out bytes.Buffer
	if _, err := repro.DecompressStream(bytes.NewReader(p.container), &out); err != nil {
		return err
	}
	b := out.Bytes()
	if len(b) != 8*len(p.field.Data) {
		return fmt.Errorf("reference decode has %d bytes, want %d", len(b), 8*len(p.field.Data))
	}
	p.ref = make([]float64, len(p.field.Data))
	for i := range p.ref {
		p.ref[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return checkBound(p.field.Data, p.ref)
}

// requests draws n reads of 1–4 rows at uniformly random starts. With
// 2-row chunks and two decode workers, 87.5% of such reads decode in one
// round (one or two chunks), so the median latency sits inside that mode;
// with 1–8 rows 44% took one round and 50% two, the median fell in the
// gap between them, and its run-to-run spread was 21%.
func (p *probe) requests(rng *rand.Rand, n int) []read {
	out := make([]read, n)
	for i := range out {
		k := 1 + rng.Intn(probeMaxRows)
		out[i] = read{start: rng.Intn(p.rows - k + 1), count: k}
	}
	return out
}

// readBatch issues the reads one after another (a closed loop with one
// client), checks each against the reference, and returns every read's
// latency in seconds and the bytes returned. With pipe non-nil each read
// is traced and its handle counters are folded into pipe; a read whose
// decoded chunk count differs from the range's fails.
func (p *probe) readBatch(r *runner, pipe *pipeStats, batch []read) ([]float64, int64) {
	lats := make([]float64, len(batch))
	var bytesOut int64
	tr := r.tr
	if pipe == nil {
		tr = nil
	}
	for i, q := range batch {
		dst := p.dst[:q.count*p.stride]
		fillNaN(dst)
		var before repro.StreamStats
		if pipe != nil {
			before = p.h.Stats()
		}
		s := tr.begin("stream.read_rows", int64(i), int64(len(dst)))
		t0 := time.Now()
		err := p.h.ReadRows(dst, uint64(q.start), uint64(q.count))
		lats[i] = time.Since(t0).Seconds()
		tr.end(s)
		bytesOut += int64(8 * len(dst))
		if err == nil && pipe != nil {
			chunks, values := touched(q.start, q.count, probeChunkRows, p.rows, p.stride)
			err = pipe.addRead(before, p.h.Stats(), tr.spanDur(s), chunks, values, 8)
		}
		if err == nil {
			if r.cfg.corrupt {
				perturb(dst)
			}
			err = checkIdentical(p.ref[q.start*p.stride:(q.start+q.count)*p.stride], dst)
		}
		if err != nil {
			err = fmt.Errorf("ReadRows(%d, %d): %w", q.start, q.count, err)
		}
		r.op("probe read", err)
	}
	return lats, bytesOut
}

// traced alternates untraced and traced batches of identical reads for
// the measured time, then replays the container and every chunk.
func (p *probe) traced(r *runner) error {
	var pipe pipeStats
	if _, _, err := p.setup(r, &pipe); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed + probeTracedBatchSeed))
	var plain, traced []float64
	win := openRuntimeWindow()
	deadline := r.deadline()
	for len(traced) < 2 || time.Now().Before(deadline) {
		batch := p.requests(rng, probeBatch)
		ls, _ := p.readBatch(r, nil, batch)
		plain = append(plain, sumOf(ls))
		ls, _ = p.readBatch(r, &pipe, batch)
		traced = append(traced, sumOf(ls))
	}
	win.close(r, len(plain)+len(traced))
	r.set("trace.overhead_frac", median(traced)/median(plain)-1)

	if err := r.replayArchive(&pipe, []string{p.field.Name}, [][]byte{p.container}); err != nil {
		return err
	}
	pipe.report(r)
	conts, err := r.replayContainers([][]byte{p.container})
	if err != nil {
		return fmt.Errorf("container replay: %w", err)
	}
	var chunks []chunkRef
	for c, payload := range conts[0].payloads {
		lo, hi := c*probeChunkRows, min((c+1)*probeChunkRows, p.rows)
		got := make([]float64, (hi-lo)*p.stride)
		if err := p.h.ReadRows(got, uint64(lo), uint64(hi-lo)); err != nil {
			return fmt.Errorf("ReadRows of chunk %d: %w", c, err)
		}
		chunks = append(chunks, chunkRef{
			data: p.field.Data[lo*p.stride : hi*p.stride], dims: []int{hi - lo, p.stride},
			got: got, payload: payload,
		})
	}
	r.replayChunks(chunks, repro.SZT)
	return nil
}
