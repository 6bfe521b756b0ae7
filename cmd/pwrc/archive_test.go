package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/faultio"
	"repro/internal/streamfmt"
)

// TestMain lets the tests run the real command: a child process of the
// test binary with PWRC_TEST_MAIN=1 in its environment executes main
// with the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PWRC_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPwrc runs the command with args and returns its combined output.
func runPwrc(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PWRC_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// writeManifest lays out one raw float64 field and its MANIFEST.txt in
// a temporary directory, returning the manifest path, the field and its
// dims.
func writeManifest(t *testing.T) (string, []float64, []int) {
	t.Helper()
	dir := t.TempDir()
	dims := []int{16, 16}
	data := make([]float64, 16*16)
	raw := make([]byte, 0, len(data)*8)
	for i := range data {
		data[i] = math.Exp(math.Sin(float64(i)/9)*4) - 0.5
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(data[i]))
	}
	if err := os.WriteFile(filepath.Join(dir, "density"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "MANIFEST.txt")
	if err := os.WriteFile(manifest, []byte("# name\tdims\ndensity\t16,16\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return manifest, data, dims
}

// TestArchiveHonorsBase checks that -base reaches every field of a
// non-stream archive: the stored blob is exactly repro.Compress under
// the same base, and differs from the base-2 encoding.
func TestArchiveHonorsBase(t *testing.T) {
	manifest, data, dims := writeManifest(t)
	out := filepath.Join(t.TempDir(), "snap.arc")
	if msg, err := runPwrc(t, "-c", "-archive", "-manifest", manifest, "-algo", "sz_t",
		"-rel", "1e-3", "-base", "e", "-out", out); err != nil {
		t.Fatalf("pwrc: %v\n%s", err, msg)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := repro.OpenArchive(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ar.Raw("density|16,16")
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Compress(data, dims, 1e-3, repro.SZT, &repro.Options{Base: repro.BaseE})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("archived blob (%d bytes) is not the base-e Compress output (%d bytes)", len(got), len(want))
	}
	base2, err := repro.Compress(data, dims, 1e-3, repro.SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(base2, want) {
		t.Fatal("base e and base 2 encode identically; the field cannot tell them apart")
	}
}

// TestArchiveWriteFailurePublishesNothing injects a write failure into
// the archive output on both paths: the error surfaces and neither the
// archive nor a temporary is left behind.
func TestArchiveWriteFailurePublishesNothing(t *testing.T) {
	manifest, _, _ := writeManifest(t)
	for _, stream := range []bool{false, true} {
		dir := t.TempDir()
		out := filepath.Join(dir, "snap.arc")
		spec := archiveSpec{algo: repro.SZT, rel: 1e-3, stream: stream,
			wrapOut: func(w io.Writer) io.Writer { return faultio.FailWriter(w, 64) }}
		if err := compressArchive(manifest, out, spec); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("stream=%v: err = %v, want the injected write failure", stream, err)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("stream=%v: failed write left %d file(s) behind, first %q", stream, len(left), left[0].Name())
		}
	}
}

// TestArchiveExtractHonorsMaxElements crafts an archive whose one field
// is a stream-container header declaring 2^40 elements: non-stream
// extraction must refuse it under the default -max-elements cap.
func TestArchiveExtractHonorsMaxElements(t *testing.T) {
	hostile := []byte{streamfmt.Magic, streamfmt.Version, byte(repro.SZT)}
	hostile = binary.AppendUvarint(hostile, 2)     // rank
	hostile = binary.AppendUvarint(hostile, 1<<20) // dims[0]
	hostile = binary.AppendUvarint(hostile, 1<<20) // dims[1]
	hostile = binary.AppendUvarint(hostile, 1)     // chunk rows
	var arc bytes.Buffer
	aw, err := repro.NewArchiveStreamWriter(&arc)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.AddCompressed("huge|1048576,1048576", hostile); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "hostile.arc")
	if err := os.WriteFile(in, arc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	outdir := t.TempDir()
	if err := extractArchive(in, outdir, decodeLimits(1<<33), false); !errors.Is(err, repro.ErrLimitExceeded) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	// Without the cap the same field fails later, on its missing frames.
	if err := extractArchive(in, outdir, nil, false); err == nil || errors.Is(err, repro.ErrLimitExceeded) {
		t.Fatalf("unlimited extraction: err = %v, want a non-limit failure", err)
	}
	// The command applies the cap by default.
	msg, err := runPwrc(t, "-d", "-archive", "-in", in, "-outdir", outdir)
	if err == nil || !strings.Contains(msg, "limit") {
		t.Fatalf("pwrc -d -archive: err = %v, output %q; want a limit failure", err, msg)
	}
}
