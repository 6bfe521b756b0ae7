package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/datagen"
)

// particles: a particle-velocity dump and restore in single precision.
// The three HACC 1D velocity fields (2²¹ particles, mixed signs) are
// narrowed to float32 and run through in-memory Compress32/Decompress32
// with ZFP_T on one goroutine. This exercises the transform's sign bitmap,
// 1D geometry, float32 narrowing and the ZFP backend, and never the SZ
// predictor, quantizer, Huffman coder, deflate or the stream pipeline: an
// optimisation of those layers should show no change here. It is also the
// single-threaded baseline.

const (
	particlesN         = 1 << 18
	particlesTinyN     = 1 << 12
	particlesSetupRuns = 5 // warm-up passes, the median is setup_s
	particlesMinPasses = 3
)

type particles struct {
	names   []string
	f32     [][]float32
	wide    [][]float64 // exact float64 copies of f32, for the checks
	dims    []int
	rawSize int64
	out     [][]byte    // each field's container from the last pass
	dec     [][]float32 // each field's decoded values from the last pass
	scratch []float64
}

// partPass is what one compress+decompress pass measured.
type partPass struct {
	compress, decompress time.Duration
	lat                  []time.Duration // one Decompress32 per field
	containerBytes       int
}

func runParticles(r *runner) error {
	n := particlesN
	if r.cfg.tiny {
		n = particlesTinyN
	}
	p := &particles{dims: []int{n}}
	var raw [][]byte
	for _, f := range datagen.HACC(n, r.cfg.seed) {
		v := make([]float32, n)
		for i, x := range f.Data {
			v[i] = float32(x)
		}
		p.names = append(p.names, f.Name)
		p.f32 = append(p.f32, v)
		p.wide = append(p.wide, widen(nil, v))
		p.rawSize += int64(4 * n)
		raw = append(raw, leBytes32(v))
	}
	p.out = make([][]byte, len(p.f32))
	p.dec = make([][]float32, len(p.f32))
	r.baseline(raw...)
	if r.cfg.trace {
		return p.traced(r)
	}

	var setup []float64
	for i := 0; i < particlesSetupRuns; i++ {
		pp, err := p.pass(r, nil, int64(i))
		if err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		setup = append(setup, (pp.compress + pp.decompress).Seconds())
	}
	r.set("setup_s", median(setup))

	var cMBps, dMBps, lat []float64
	var alloc uint64
	var containerBytes int
	deadline := r.deadline()
	for op := int64(particlesSetupRuns); len(cMBps) < particlesMinPasses || time.Now().Before(deadline); op++ {
		a0 := totalAlloc()
		pp, err := p.pass(r, nil, op)
		alloc += totalAlloc() - a0
		if err != nil {
			continue
		}
		cMBps = append(cMBps, float64(p.rawSize)/1e6/pp.compress.Seconds())
		dMBps = append(dMBps, float64(p.rawSize)/1e6/pp.decompress.Seconds())
		lat = append(lat, seconds(pp.lat)...)
		containerBytes = pp.containerBytes
	}
	r.set("compress_mbps", median(cMBps))
	r.set("decompress_mbps", median(dMBps))
	r.setLatency(lat)
	r.set("ratio", float64(p.rawSize)/float64(containerBytes))
	r.set("alloc_bytes_per_byte", float64(alloc)/float64(2*p.rawSize*int64(len(cMBps))))
	r.notef("%d passes of %d field decodes", len(cMBps), len(p.f32))
	return nil
}

// pass compresses and decompresses every field on this goroutine and
// checks each decoded field in the float32 domain. tr, when non-nil,
// records spans around every call.
func (p *particles) pass(r *runner, tr *tracer, op int64) (partPass, error) {
	runtime.GC()
	var pp partPass
	var firstErr error
	root := tr.begin("particles.pass", op, 2*p.rawSize/4)
	for i, f := range p.f32 {
		n := int64(len(f))
		s := tr.begin("repro.Compress32", op, n)
		t0 := time.Now()
		buf, err := repro.Compress32(f, p.dims, relBound, repro.ZFPT, nil)
		c := time.Since(t0)
		tr.end(s)
		var dec []float32
		var d time.Duration
		if err == nil {
			s = tr.begin("repro.Decompress32", op, n)
			t1 := time.Now()
			dec, _, err = repro.Decompress32(buf)
			d = time.Since(t1)
			tr.end(s)
		}
		if err == nil {
			pp.compress += c
			pp.decompress += d
			pp.lat = append(pp.lat, d)
			pp.containerBytes += len(buf)
			p.out[i], p.dec[i] = buf, dec
			p.scratch = widen(p.scratch, dec)
			if r.cfg.corrupt {
				perturb(p.scratch)
			}
			err = checkBound(p.wide[i], p.scratch)
		} else if firstErr == nil {
			firstErr = err
		}
		r.op("particles round trip of "+p.names[i], err)
	}
	tr.end(root)
	return pp, firstErr
}

// traced alternates untraced and traced passes for the measured time,
// replays the fields through the stream pipeline and an archive (which
// the workload's own path never uses), and then replays each field as one
// chunk through the layers.
func (p *particles) traced(r *runner) error {
	if _, err := p.pass(r, nil, 0); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	var plain, traced []float64
	win := openRuntimeWindow()
	deadline := r.deadline()
	for op := int64(1); len(traced) < 2 || time.Now().Before(deadline); op += 2 {
		pp, err := p.pass(r, nil, op)
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		plain = append(plain, (pp.compress + pp.decompress).Seconds())
		if pp, err = p.pass(r, r.tr, op+1); err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		traced = append(traced, (pp.compress + pp.decompress).Seconds())
	}
	win.close(r, len(plain)+len(traced))
	r.set("trace.overhead_frac", median(traced)/median(plain)-1)

	var pipe pipeStats
	containers, err := p.replayStream(r, &pipe)
	if err != nil {
		return err
	}
	if err := r.replayArchive(&pipe, p.names, containers); err != nil {
		return err
	}
	pipe.report(r)
	if _, err := r.replayContainers(containers); err != nil {
		return fmt.Errorf("container replay: %w", err)
	}
	var chunks []chunkRef
	for i := range p.f32 {
		chunks = append(chunks, chunkRef{
			data: p.wide[i], data32: p.f32[i], dims: p.dims,
			got: widen(nil, p.dec[i]), payload: p.out[i],
		})
	}
	r.replayChunks(chunks, repro.ZFPT)
	return nil
}

// replayStream writes each field as a float32 stream container with
// CompressStreamOpts and reads it back in full with OpenStream and
// ReadRows32, folding the pipeline's counters into pipe.
func (p *particles) replayStream(r *runner, pipe *pipeStats) ([][]byte, error) {
	tr := r.tr
	var containers [][]byte
	for i, f := range p.f32 {
		var buf bytes.Buffer
		s := tr.begin("stream.compress", int64(i), int64(len(f)))
		st, err := repro.CompressStreamOpts(bytes.NewReader(leBytes32(f)), &buf, p.dims, relBound, repro.ZFPT,
			repro.WithFloat32(), repro.WithWorkers(workers), repro.WithParity(parityK))
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("stream replay of %s: %w", p.names[i], err)
		}
		pipe.addWrite(st, tr.spanDur(s))
		h, err := repro.OpenStream(bytes.NewReader(buf.Bytes()), repro.WithWorkers(workers))
		if err != nil {
			return nil, fmt.Errorf("stream replay of %s: %w", p.names[i], err)
		}
		got := make([]float32, len(f))
		s = tr.begin("stream.read_rows", int64(i), int64(len(f)))
		err = h.ReadRows32(got, 0, h.Rows())
		tr.end(s)
		if err == nil {
			err = pipe.addRead(repro.StreamStats{}, h.Stats(), tr.spanDur(s), int64(h.Chunks()), int64(len(f)), 4)
		}
		if err == nil {
			err = checkBound(p.wide[i], widen(nil, got))
		}
		r.op("particles stream replay of "+p.names[i], err)
		containers = append(containers, buf.Bytes())
	}
	return containers, nil
}
