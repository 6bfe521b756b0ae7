package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/metrics"
)

func TestArchiveRoundTrip(t *testing.T) {
	fields := datagen.NYX(16, 40)
	var buf bytes.Buffer
	w, err := NewArchiveStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rel := 1e-2
	for i := range fields {
		f := &fields[i]
		if _, err := w.AddField(f.Name, bytes.NewReader(rawLE(f.Data)), f.Dims, rel, SZT); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenArchive(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fields()) != len(fields) {
		t.Fatalf("fields %v", r.Fields())
	}
	for i := range fields {
		f := &fields[i]
		dec, dims, err := r.Field(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !grid.EqualDims(dims, f.Dims) {
			t.Fatalf("%s dims %v", f.Name, dims)
		}
		st, err := metrics.RelError(f.Data, dec, rel)
		if err != nil {
			t.Fatal(err)
		}
		if st.Max > rel {
			t.Fatalf("%s: max %g", f.Name, st.Max)
		}
	}
	if _, _, err := r.Field("nope"); err == nil {
		t.Fatal("missing field accepted")
	}
	if got := r.SortedFields(); got[0] > got[len(got)-1] {
		t.Fatal("SortedFields not sorted")
	}
}

// TestArchiveMixedAlgorithmsAndModes bundles every container kind a
// field can hold — plain relative, plain absolute, stream, and a legacy
// parallel blob — into one archive.
func TestArchiveMixedAlgorithmsAndModes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
	}
	var buf bytes.Buffer
	w, err := NewArchiveStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	szt, err := Compress(data, []int{1000}, 1e-3, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("szt", szt); err != nil {
		t.Fatal(err)
	}
	abs, err := CompressAbs(data, []int{1000}, 0.01, SZABS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("abs", abs); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddField("stream", bytes.NewReader(rawLE(data)), []int{1000}, 1e-2, FPZIP,
		WithChunkRows(300)); err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("par", readLegacy(t, "parallel.bin")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenArchive(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"szt": 1000, "abs": 1000, "stream": 1000, "par": 40} {
		dec, _, err := r.Field(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dec) != want {
			t.Fatalf("%s: length %d, want %d", name, len(dec), want)
		}
	}
	// Raw access returns the stream unmodified.
	raw, err := r.Raw("abs")
	if err != nil || !bytes.Equal(raw, abs) {
		t.Fatalf("Raw: %v len %d vs %d", err, len(raw), len(abs))
	}
}

func TestArchiveWriterValidation(t *testing.T) {
	w, err := NewArchiveStreamWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("", []byte{1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.AddCompressed("x", []byte{0xde, 0xad}); err == nil {
		t.Fatal("garbage stream accepted")
	}
	buf, err := Compress([]float64{1, 2}, []int{2}, 0.1, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("a", buf); err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("a", buf); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestArchiveEmpty opens a field-less archive in the current (v3) and
// the legacy v2 layout.
func TestArchiveEmpty(t *testing.T) {
	var v3 bytes.Buffer
	w, err := NewArchiveStreamWriter(&v3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string][]byte{"v3": v3.Bytes(), "v2": buildArchiveV2(nil, nil)} {
		r, err := OpenArchive(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Fields()) != 0 {
			t.Fatalf("%s: phantom fields", name)
		}
	}
}

// TestArchiveCorrupt damages the committed v2 archive.
func TestArchiveCorrupt(t *testing.T) {
	buf := readLegacy(t, "archive_v2.bin")
	if _, err := OpenArchive(buf); err != nil {
		t.Fatalf("clean fixture: %v", err)
	}
	for _, cut := range []int{0, 1, 3, len(buf) - 1} {
		if _, err := OpenArchive(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Any bit flip in the blob region must be caught by the archive CRC.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		mut := append([]byte(nil), buf...)
		mut[len(mut)-1-rng.Intn(8)] ^= byte(1 << rng.Intn(8))
		if _, err := OpenArchive(mut); err == nil {
			t.Fatal("blob corruption not detected")
		}
	}
}

// buildArchiveV2 hand-assembles a v2 archive from an explicit directory,
// with a correct area CRC, so tests can craft geometries the writer
// would never emit.
func buildArchiveV2(entries []struct {
	name    string
	off, ln uint64
}, area []byte) []byte {
	out := []byte{archiveMagicV2, archiveV2Ver}
	out = bitio.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = bitio.AppendUvarint(out, uint64(len(e.name)))
		out = append(out, e.name...)
		out = bitio.AppendUvarint(out, e.off)
		out = bitio.AppendUvarint(out, e.ln)
	}
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(area))
	return append(out, area...)
}

// TestArchiveOverlappingEntries is the regression test for directory
// validation: a crafted v2 archive whose entries alias the same blob
// bytes must be rejected, not silently served.
func TestArchiveOverlappingEntries(t *testing.T) {
	blob, err := Compress([]float64{1, 2, 3, 4}, []int{4}, 0.1, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	type entry = struct {
		name    string
		off, ln uint64
	}
	n := uint64(len(blob))

	// Full aliasing: both fields claim the same extent.
	buf := buildArchiveV2([]entry{{"a", 0, n}, {"b", 0, n}}, blob)
	if _, err := OpenArchive(buf); !errors.Is(err, ErrCorrupted) || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("aliased entries: err = %v, want ErrCorrupted overlap", err)
	}

	// Partial overlap.
	area := append(append([]byte(nil), blob...), blob...)
	buf = buildArchiveV2([]entry{{"a", 0, n}, {"b", n - 1, n}}, area[:2*n-1])
	if _, err := OpenArchive(buf); !errors.Is(err, ErrCorrupted) || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("partial overlap: err = %v, want ErrCorrupted overlap", err)
	}

	// Out of range: the entry reaches past the blob area.
	buf = buildArchiveV2([]entry{{"a", 1, n}}, blob)
	if _, err := OpenArchive(buf); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("out-of-range entry: err = %v, want ErrCorrupted", err)
	}

	// The same blobs laid out back to back are fine.
	buf = buildArchiveV2([]entry{{"a", 0, n}, {"b", n, n}}, area)
	r, err := OpenArchive(buf)
	if err != nil {
		t.Fatalf("valid crafted archive rejected: %v", err)
	}
	for _, name := range []string{"a", "b"} {
		if _, _, err := r.Field(name); err != nil {
			t.Fatalf("field %q: %v", name, err)
		}
	}
}

// TestArchiveV1Compat pins the reader's support for the legacy implicit-
// offset layout.
func TestArchiveV1Compat(t *testing.T) {
	blob, err := Compress([]float64{5, 6, 7, 8}, []int{2, 2}, 0.1, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte{archiveMagic}
	out = bitio.AppendUvarint(out, 2)
	for _, name := range []string{"x", "y"} {
		out = bitio.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = bitio.AppendUvarint(out, uint64(len(blob)))
	}
	crc := crc32.Update(crc32.ChecksumIEEE(blob), crc32.IEEETable, blob)
	out = binary.BigEndian.AppendUint32(out, crc)
	out = append(out, blob...)
	out = append(out, blob...)

	r, err := OpenArchive(out)
	if err != nil {
		t.Fatalf("v1 archive rejected: %v", err)
	}
	for _, name := range []string{"x", "y"} {
		data, dims, err := r.Field(name)
		if err != nil || len(data) != 4 || len(dims) != 2 {
			t.Fatalf("v1 field %q: data=%d dims=%v err=%v", name, len(data), dims, err)
		}
	}
}

// TestArchiveHostileCount rejects a directory count the container could
// not possibly hold, before it sizes any allocation.
func TestArchiveHostileCount(t *testing.T) {
	for _, magic := range []byte{archiveMagic, archiveMagicV2} {
		hostile := []byte{magic, archiveV2Ver}
		if magic == archiveMagic {
			hostile = hostile[:1]
		}
		hostile = bitio.AppendUvarint(hostile, 1<<19) // huge count, no bytes behind it
		if _, err := OpenArchive(hostile); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("magic %#x: hostile count gave %v, want ErrCorrupted", magic, err)
		}
	}
}
