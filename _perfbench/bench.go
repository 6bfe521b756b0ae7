package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	pwmetrics "repro/internal/metrics"
)

// runner carries one run's configuration, counters and results.
type runner struct {
	cfg       config
	attempted int64
	failed    int64
	metrics   map[string]metricValue
	notes     []string
	host      hostRecord
	// tr records spans in a traced run; nil (every method a no-op) in
	// an untraced one.
	tr *tracer
}

// hostRecord identifies where and how a result was measured.
type hostRecord struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	CPUModel     string  `json:"cpu_model"`
	MemmoveGBps  float64 `json:"memmove_gbps"`
	InputBytes   int64   `json:"input_bytes"`
	Tiny         bool    `json:"tiny,omitempty"`
	StartedAtUTC string  `json:"started_at_utc"`
}

func newRunner(cfg config) *runner {
	r := &runner{
		cfg:     cfg,
		metrics: make(map[string]metricValue),
		host: hostRecord{
			Workload:     cfg.workload,
			Seed:         cfg.seed,
			Seconds:      cfg.seconds,
			Trace:        cfg.trace,
			GoVersion:    runtime.Version(),
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			NumCPU:       runtime.NumCPU(),
			CPUModel:     cpuModel(),
			Tiny:         cfg.tiny,
			StartedAtUTC: time.Now().UTC().Format(time.RFC3339),
		},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }() // read-only: nothing to lose on close
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := make(map[string]string)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[m.name] = m.unit
	}
	return u
}()

// set records one metric with its unit.
func (r *runner) set(name string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: units[name]}
}

// op counts one attempted operation; err non-nil counts it as failed.
func (r *runner) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			r.notef("FAILED %s: %v", what, err)
		}
	}
}

// setLatency records the read percentiles of per-read latencies (in
// seconds) and notes the sample count with the p99, which only probe's
// read count supports with ten or more samples beyond it.
func (r *runner) setLatency(lat []float64) {
	r.set("read_p50_us", quantile(lat, 0.5)*1e6)
	r.set("read_p95_us", quantile(lat, 0.95)*1e6)
	r.notef("%d reads: p99 %.1f us with %.0f reads beyond it", len(lat), quantile(lat, 0.99)*1e6, 0.01*float64(len(lat)))
}

func (r *runner) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runner) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// baseline measures copy() over srcs, the workload's raw input, in this
// process: the host's memory bandwidth against which every throughput
// compares across hosts.
func (r *runner) baseline(srcs ...[]byte) {
	var size, largest int
	for _, s := range srcs {
		size += len(s)
		largest = max(largest, len(s))
	}
	dst := make([]byte, largest)
	r.host.InputBytes = int64(size)
	var rates []float64
	for rep := 0; rep < 7; rep++ {
		n := 0
		t0 := time.Now()
		for n == 0 || time.Since(t0) < 20*time.Millisecond {
			for _, s := range srcs {
				copy(dst, s)
			}
			n++
		}
		rates = append(rates, float64(n)*float64(size)/time.Since(t0).Seconds()/1e9)
	}
	r.host.MemmoveGBps = median(rates)
	if r.cfg.trace {
		r.set("baseline.memmove_gbps", r.host.MemmoveGBps)
	}
}

// checkBound is the point-wise gate of every lossy round trip: every
// point within the relative bound and every original zero decoded as an
// exact zero.
func checkBound(orig, dec []float64) error {
	st, err := pwmetrics.RelError(orig, dec, relBound)
	if err != nil {
		return err
	}
	if st.BoundedFrac < 1 || st.ZeroPerturbed != 0 {
		return fmt.Errorf("bound violated: bounded %.9f, max rel err %g, %d zeros perturbed",
			st.BoundedFrac, st.Max, st.ZeroPerturbed)
	}
	return nil
}

// checkIdentical requires got to equal want bit for bit.
func checkIdentical(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("value %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// perturb damages one output value beyond any bound (the self-test's
// corrupted output).
func perturb(v []float64) {
	if len(v) > 0 {
		v[0] = 2*v[0] + 1
	}
}

// fillNaN poisons a destination before a read, so a read that leaves it
// untouched fails its check instead of passing on stale values.
func fillNaN(v []float64) {
	nan := math.NaN()
	for i := range v {
		v[i] = nan
	}
}

func leBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func leBytes32(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

// widen copies float32 values into dst exactly.
func widen(dst []float64, src []float32) []float64 {
	dst = dst[:0]
	for _, x := range src {
		dst = append(dst, float64(x))
	}
	return dst
}

// totalAlloc returns the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// span is one timed call. Spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int64  `json:"op"`
	// Units counts the work the call processed: values, or chunks for
	// container-level calls.
	Units int64 `json:"units,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Spans nest on the benchmark's single driving goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span; a nil tracer records nothing.
func (t *tracer) begin(name string, op, units int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op, Units: units})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	selfNS float64 // duration minus the time covered by child spans
	count  int
	units  int64
}

// selfTimes derives every span name's self time: its duration minus the
// part its (sequential, non-overlapping) children cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.selfNS += float64(s.End - s.Start - child[i])
		lt.count++
		lt.units += s.Units
	}
	return out
}

// writeFile writes the host record and then one JSON line per span.
func (t *tracer) writeFile(path string, host hostRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(host)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// runtimeWindow measures the Go runtime over a window of traced passes:
// GC cycles, the GC's share of CPU, and the peak live heap sampled every
// millisecond by a goroutine that stops when the window closes.
type runtimeWindow struct {
	start []metrics.Sample
	stop  chan struct{}
	done  chan struct{} // closed by the sampler once peak is final
	peak  float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

func openRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{start: readRuntime(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			w.peak = math.Max(w.peak, sampleValue(heap[0]))
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// close ends the window and records its runtime metrics over passes.
func (w *runtimeWindow) close(r *runner, passes int) {
	close(w.stop)
	<-w.done
	peak := w.peak
	end := readRuntime()
	d := func(i int) float64 { return sampleValue(end[i]) - sampleValue(w.start[i]) }
	r.set("runtime.gc_cycles", d(0)/float64(max(passes, 1)))
	if total := d(2); total > 0 {
		r.set("runtime.gc_cpu_frac", d(1)/total)
	} else {
		r.set("runtime.gc_cpu_frac", 0)
	}
	r.set("runtime.heap_peak_mib", peak/(1<<20))
}
