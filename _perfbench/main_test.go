package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// spec is the part of ../BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestEveryMetricPrinted runs every workload at tiny scale, untraced and
// traced, through the command's own entry point, and checks that the last
// line of its output is the result with exactly the metrics, and units,
// that BENCHMARK.json declares.
func TestEveryMetricPrinted(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := make(map[string]string)
			if trace == "0" {
				for _, m := range sp.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range sp.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--tiny"}
			if code := cli(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v failed=%d attempted=%d\n%s", args, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json declares %d", args, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%v: metric %s missing", args, name)
				case m.Unit != unit:
					t.Errorf("%v: metric %s has unit %q, BENCHMARK.json says %q", args, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%v: metric %s is %v", args, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedOutputIsCounted feeds every workload's checks a damaged
// output and requires the failures to land in fail_frac.
func TestCorruptedOutputIsCounted(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := run(config{workload: name, seed: 7, seconds: 0.2, trace: trace, tiny: true, corrupt: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.attempted == 0 || r.failed == 0 || !(r.failFrac() > 0) {
				t.Errorf("%s trace=%v: corrupted outputs gave %d failed of %d attempted", name, trace, r.failed, r.attempted)
			}
		}
	}
}

// TestRejectsBadArguments checks that a bad invocation exits non-zero
// without printing a result.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--workload", "probe", "--seed", "1", "--seconds", "0", "--trace", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
