// Command perfbench is the repository's benchmark. It runs one named
// workload against the compressor, checks every operation's output, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload snapshot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (tracing off). With
// --trace 1 it records spans around every end-to-end call and every call
// into a layer, replays each of the workload's chunks through the layers'
// own functions, and reports the per-layer metrics. README.md maps each
// layer metric to the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Run-wide constants shared by every workload.
const (
	relBound = 1e-3 // point-wise relative bound of every compression
	workers  = 2    // worker goroutines of every pipelined call
	parityK  = 8    // parity group size of every stream container
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"compress_mbps", "MB/s"},
	{"decompress_mbps", "MB/s"},
	{"read_p50_us", "us"},
	{"read_p95_us", "us"},
	{"ratio", "x"},
	{"alloc_bytes_per_byte", "B/B"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run, in layer order.
var perLayer = []metricDef{
	{"core.forward_ns_per_value", "ns/value"},
	{"core.inverse_ns_per_value", "ns/value"},
	{"quant.predict_quantize_ns_per_value", "ns/value"},
	{"huffman.encode_ns_per_value", "ns/value"},
	{"huffman.decode_ns_per_value", "ns/value"},
	{"huffman.decode_us_per_chunk", "us/chunk"},
	{"sz.compress_us_per_chunk", "us/chunk"},
	{"sz.decompress_us_per_chunk", "us/chunk"},
	{"sz.lossless_us_per_chunk", "us/chunk"},
	{"sz.alloc_bytes_per_chunk", "B/chunk"},
	{"zfp.compress_ns_per_value", "ns/value"},
	{"zfp.decompress_ns_per_value", "ns/value"},
	{"streamfmt.write_us_per_chunk", "us/chunk"},
	{"streamfmt.open_index_us", "us"},
	{"streamfmt.frame_read_us_per_chunk", "us/chunk"},
	{"streamfmt.parity_bytes_frac", "fraction"},
	{"stream.codec_busy_frac", "fraction"},
	{"stream.read_wall_s", "s/call"},
	{"stream.write_wall_s", "s/call"},
	{"stream.max_in_flight", "count"},
	{"stream.buffers_allocated", "count"},
	{"seek.chunks_per_read", "chunks/read"},
	{"seek.fetched_bytes_per_read", "B/read"},
	{"seek.decoded_values_per_returned_value", "ratio"},
	{"archive.close_us", "us"},
	{"archive.open_us", "us"},
	{"archive.directory_bytes", "B"},
	{"runtime.gc_cycles", "count/pass"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.heap_peak_mib", "MiB"},
	{"baseline.memmove_gbps", "GB/s"},
	{"trace.unattributed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input so the self-test runs in seconds.
	tiny bool
	// spansDir receives the traced run's spans; empty keeps them in
	// memory only.
	spansDir string
	// corrupt perturbs one output of every operation before its check,
	// so the self-test can prove the checks count failures.
	corrupt bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*runner) error{
	"snapshot":  runSnapshot,
	"probe":     runProbe,
	"particles": runParticles,
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: snapshot, probe or particles")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every input (self-test scale)")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory that receives the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := r.report(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// run executes one workload and returns the runner holding its results.
func run(cfg config) (*runner, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want snapshot, probe or particles)", cfg.workload)
	}
	if !(cfg.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r := newRunner(cfg)
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	var missing []string
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 || len(r.metrics) != len(want) {
		return nil, fmt.Errorf("%s: metrics not measured: %v (measured %d, want %d)", cfg.workload, missing, len(r.metrics), len(want))
	}
	if cfg.trace && cfg.spansDir != "" {
		if err := r.tr.writeFile(filepath.Join(cfg.spansDir,
			fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed)), r.host); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// report prints the host record, a readable summary and, last, the JSON
// result.
func (r *runner) report(w io.Writer) error {
	host, err := json.Marshal(r.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", host)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Fprintf(w, "fail_frac %d/%d = %g\n", r.failed, r.attempted, r.failFrac())
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// deadline returns when the measured phase that starts now must end.
func (r *runner) deadline() time.Time {
	return time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
}
