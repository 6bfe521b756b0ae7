package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/datagen"
)

// snapshot: a simulation dump and restore. Four NYX 128³ float64 fields
// are written as SZ_T into a streaming v3 archive (two workers, parity 8,
// default 2 MiB chunks) and read back in full through the archive's
// seekable handles, each field as 32-row slabs (two default chunks, so
// both workers decode; sixteen reads a pass give the read percentiles
// enough samples). The time goes to the per-value layers
// (transform, prediction+quantization, Huffman) and the worker pipeline;
// per-chunk set-up is a small share. Encode and decode are both timed, so
// a change that speeds one at the cost of the other shows.

const (
	snapshotSide      = 128
	snapshotTinySide  = 24
	snapshotSetupRuns = 5 // warm-up passes, the median is setup_s
	snapshotMinPasses = 3
	snapshotSlabRows  = 32
)

type snapshot struct {
	fields  []datagen.Field
	raw     [][]byte    // each field as little-endian float64 bytes
	dst     [][]float64 // read-back destination of each field
	rawSize int64
	archive bytes.Buffer
}

// snapPass is what one write+read pass measured.
type snapPass struct {
	write, read time.Duration
	lat         []time.Duration // one per ReadRows slab
	writeStats  []*repro.StreamStats
	// Traced passes only: span ids and the handles' counters around
	// every read.
	addSpans  []int32
	reads     []readObs
	closeSpan int32
	openSpan  int32
}

// readObs is one traced range read of field: the handle's counters
// before and after it and its span.
type readObs struct {
	field         int
	start, count  int
	before, after repro.StreamStats
	span          int32
}

func runSnapshot(r *runner) error {
	side := snapshotSide
	if r.cfg.tiny {
		side = snapshotTinySide
	}
	s := &snapshot{fields: datagen.NYX(side, r.cfg.seed)}
	for _, f := range s.fields {
		b := leBytes(f.Data)
		s.raw = append(s.raw, b)
		s.dst = append(s.dst, make([]float64, len(f.Data)))
		s.rawSize += int64(len(b))
	}
	r.baseline(s.raw...)
	if r.cfg.trace {
		return s.traced(r)
	}

	var setup []float64
	for i := 0; i < snapshotSetupRuns; i++ {
		p, err := s.pass(r, nil, int64(i))
		if err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		setup = append(setup, (p.write + p.read).Seconds())
	}
	r.set("setup_s", median(setup))

	var cMBps, dMBps, lat []float64
	var alloc uint64
	deadline := r.deadline()
	for op := int64(snapshotSetupRuns); len(cMBps) < snapshotMinPasses || time.Now().Before(deadline); op++ {
		a0 := totalAlloc()
		p, err := s.pass(r, nil, op)
		alloc += totalAlloc() - a0
		if err != nil {
			continue
		}
		cMBps = append(cMBps, float64(s.rawSize)/1e6/p.write.Seconds())
		dMBps = append(dMBps, float64(s.rawSize)/1e6/p.read.Seconds())
		lat = append(lat, seconds(p.lat)...)
	}
	r.set("compress_mbps", median(cMBps))
	r.set("decompress_mbps", median(dMBps))
	r.setLatency(lat)
	r.set("ratio", float64(s.rawSize)/float64(s.archive.Len()))
	r.set("alloc_bytes_per_byte", float64(alloc)/float64(2*s.rawSize*int64(len(cMBps))))
	r.notef("%d passes of %d slab reads", len(cMBps), len(lat)/max(len(cMBps), 1))
	return nil
}

// pass writes every field into a fresh archive, reads every field back,
// and checks each field round trip against the bound. tr, when non-nil,
// records spans around every call.
func (s *snapshot) pass(r *runner, tr *tracer, op int64) (snapPass, error) {
	for _, d := range s.dst {
		fillNaN(d)
	}
	runtime.GC()
	var p snapPass
	s.archive.Reset()
	root := tr.begin("snapshot.pass", op, 2*s.rawSize/8)
	t0 := time.Now()
	err := s.write(tr, op, &p)
	p.write = time.Since(t0)
	if err == nil {
		t1 := time.Now()
		err = s.read(tr, op, &p)
		p.read = time.Since(t1)
	}
	tr.end(root)
	for i, f := range s.fields {
		ferr := err
		if ferr == nil {
			if r.cfg.corrupt {
				perturb(s.dst[i])
			}
			ferr = checkBound(f.Data, s.dst[i])
		}
		r.op("snapshot round trip of "+f.Name, ferr)
	}
	return p, err
}

func (s *snapshot) write(tr *tracer, op int64, p *snapPass) error {
	aw, err := repro.NewArchiveStreamWriter(&s.archive, repro.WithWorkers(workers), repro.WithParity(parityK))
	if err != nil {
		return err
	}
	for i, f := range s.fields {
		sp := tr.begin("archive.add_field", op, int64(len(f.Data)))
		st, err := aw.AddField(f.Name, bytes.NewReader(s.raw[i]), f.Dims, relBound, repro.SZT)
		tr.end(sp)
		if err != nil {
			return err
		}
		p.writeStats = append(p.writeStats, st)
		p.addSpans = append(p.addSpans, sp)
	}
	p.closeSpan = tr.begin("archive.close", op, 0)
	err = aw.Close()
	tr.end(p.closeSpan)
	return err
}

func (s *snapshot) read(tr *tracer, op int64, p *snapPass) error {
	p.openSpan = tr.begin("archive.open", op, 0)
	ar, err := repro.OpenArchiveStream(bytes.NewReader(s.archive.Bytes()), repro.WithWorkers(workers))
	tr.end(p.openSpan)
	if err != nil {
		return err
	}
	for i, f := range s.fields {
		h, err := ar.Field(f.Name)
		if err != nil {
			return err
		}
		stride := uint64(h.RowStride())
		for row := uint64(0); row < h.Rows(); row += snapshotSlabRows {
			n := min(snapshotSlabRows, h.Rows()-row)
			var before repro.StreamStats
			if tr != nil {
				before = h.Stats()
			}
			sp := tr.begin("stream.read_rows", op, int64(n*stride))
			t := time.Now()
			err = h.ReadRows(s.dst[i][row*stride:(row+n)*stride], row, n)
			p.lat = append(p.lat, time.Since(t))
			tr.end(sp)
			if err != nil {
				return err
			}
			if tr != nil {
				p.reads = append(p.reads, readObs{field: i, start: int(row), count: int(n), before: before, after: h.Stats(), span: sp})
			}
		}
	}
	return nil
}

// traced alternates untraced and traced passes for the measured time,
// then replays the last traced pass's containers and chunks through the
// layers.
func (s *snapshot) traced(r *runner) error {
	if _, err := s.pass(r, nil, 0); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	var plain, traced []float64
	var passes []snapPass
	win := openRuntimeWindow()
	deadline := r.deadline()
	for op := int64(1); len(traced) < 2 || time.Now().Before(deadline); op += 2 {
		p, err := s.pass(r, nil, op)
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		plain = append(plain, (p.write + p.read).Seconds())
		if p, err = s.pass(r, r.tr, op+1); err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		traced = append(traced, (p.write + p.read).Seconds())
		passes = append(passes, p)
	}
	win.close(r, len(plain)+len(traced))
	r.set("trace.overhead_frac", median(traced)/median(plain)-1)

	// The archive's blob area is the fields' stream containers, in order.
	var containers [][]byte
	off := int64(2)
	for _, st := range passes[len(passes)-1].writeStats {
		containers = append(containers, s.archive.Bytes()[off:off+st.BytesOut])
		off += st.BytesOut
	}
	conts, err := r.replayContainers(containers)
	if err != nil {
		return fmt.Errorf("container replay: %w", err)
	}
	var pipe pipeStats
	for _, p := range passes {
		if err := s.fold(r, &pipe, p, conts); err != nil {
			return err
		}
	}
	pipe.directoryBytes = directoryBytes(s.archive.Bytes())
	pipe.report(r)
	var chunks []chunkRef
	for i, f := range s.fields {
		rows, stride := f.Dims[0], len(f.Data)/f.Dims[0]
		chunkRows := conts[i].hdr.ChunkRows
		for c, payload := range conts[i].payloads {
			r0, r1 := c*chunkRows, min((c+1)*chunkRows, rows)
			chunks = append(chunks, chunkRef{
				data: f.Data[r0*stride : r1*stride], dims: append([]int{r1 - r0}, f.Dims[1:]...),
				got: s.dst[i][r0*stride : r1*stride], payload: payload,
			})
		}
	}
	r.replayChunks(chunks, repro.SZT)
	return nil
}

// fold adds one traced pass's pipeline counters to pipe; conts gives
// each field's chunk geometry.
func (s *snapshot) fold(r *runner, pipe *pipeStats, p snapPass, conts []replayed) error {
	for i, st := range p.writeStats {
		pipe.addWrite(st, r.tr.spanDur(p.addSpans[i]))
	}
	for _, o := range p.reads {
		f := s.fields[o.field]
		chunks, values := touched(o.start, o.count, conts[o.field].hdr.ChunkRows, f.Dims[0], len(f.Data)/f.Dims[0])
		if err := pipe.addRead(o.before, o.after, r.tr.spanDur(o.span), chunks, values, 8); err != nil {
			return err
		}
	}
	pipe.closeUS = append(pipe.closeUS, float64(r.tr.spanDur(p.closeSpan))/1e3)
	pipe.openUS = append(pipe.openUS, float64(r.tr.spanDur(p.openSpan))/1e3)
	return nil
}
