package repro

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/testutil"
)

// The 0xC6 parallel container and the v2 archive are decode-only, so
// their tests run against bytes the removed encoders wrote, committed
// under testdata/legacy:
//
//	parallel.bin        40-value SZ_T field, dims 8x5, rel 1e-2, 2 chunks
//	archive_v2.bin      v2 archive: f0 = plain SZ_T of that field,
//	                    f1 = parallel.bin
//	parallel_algos.bin  v2 archive holding, per relative algorithm (the
//	                    field name is Algorithm.String), a 4-chunk
//	                    parallel container of the golden NYX 8^3 field
//	                    at rel 1e-2

const legacyDir = "testdata/legacy"

// readLegacy loads one committed legacy container.
func readLegacy(tb testing.TB, name string) []byte {
	tb.Helper()
	buf, err := os.ReadFile(filepath.Join(legacyDir, name))
	if err != nil {
		tb.Fatalf("legacy fixture: %v", err)
	}
	return buf
}

// legacyParallel returns algo's parallel container from
// parallel_algos.bin and the source field it encodes.
func legacyParallel(tb testing.TB, algo Algorithm) ([]byte, datagen.Field) {
	tb.Helper()
	r, err := OpenArchive(readLegacy(tb, "parallel_algos.bin"))
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := r.Raw(algo.String())
	if err != nil {
		tb.Fatal(err)
	}
	return buf, datagen.NYX(8, 424242)[0]
}

// TestParallelRoundTrip decodes bytes the removed parallel encoder
// wrote back to their source field, within the bound they promised.
func TestParallelRoundTrip(t *testing.T) {
	defer testutil.NoLeak(t)()
	const rel = 1e-2
	buf, f := legacyParallel(t, SZT)
	if !isParallelContainer(buf) {
		t.Fatal("not detected as parallel container")
	}
	dec, dims, err := DecompressAny(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !grid.EqualDims(dims, f.Dims) {
		t.Fatalf("dims %v, want %v", dims, f.Dims)
	}
	st, err := metrics.RelError(f.Data, dec, rel)
	if err != nil {
		t.Fatal(err)
	}
	if st.Max > rel {
		t.Fatalf("max rel %g > %g", st.Max, rel)
	}
}

// TestParallelMoreChunksThanRows pins the decoder's chunk-count check:
// a container cannot split dims[0] rows into more than dims[0] chunks,
// nor into none.
func TestParallelMoreChunksThanRows(t *testing.T) {
	defer testutil.NoLeak(t)()
	buf := readLegacy(t, "parallel.bin")
	// magic, algo, rank 2, dims 8 and 5, then the chunk count.
	const countOff = 5
	if buf[2] != 2 || buf[3] != 8 || buf[4] != 5 || buf[countOff] != 2 {
		t.Fatalf("fixture header % x is not the documented 8x5, 2-chunk layout", buf[:countOff+1])
	}
	for _, chunks := range []byte{0, 9} {
		mut := append([]byte(nil), buf...)
		mut[countOff] = chunks
		if _, _, err := DecompressAny(mut); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("%d chunks over 8 rows: err = %v, want ErrCorrupted", chunks, err)
		}
	}
}

// TestParallelAllAlgorithms decodes one legacy parallel container per
// relative algorithm.
func TestParallelAllAlgorithms(t *testing.T) {
	defer testutil.NoLeak(t)()
	const rel = 1e-2
	for _, algo := range RelativeAlgorithms() {
		buf, f := legacyParallel(t, algo)
		dec, _, err := DecompressAny(buf)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		st, err := metrics.RelError(f.Data, dec, rel)
		if err != nil {
			t.Fatal(err)
		}
		if algo != ZFPP && st.Max > rel {
			t.Fatalf("%v: max rel %g", algo, st.Max)
		}
	}
}

// TestParallelMatchesSerialBound: chunked compression through the
// multi-worker stream pipeline must cost only a modest ratio penalty
// once the chunks are large enough to amortize their per-chunk code
// tables and framing.
func TestParallelMatchesSerialBound(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields := datagen.NYX(48, 13)
	f := fields[0]
	rel := 1e-2
	serial, err := Compress(f.Data, f.Dims, rel, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &par, f.Dims, rel, SZT,
		WithWorkers(4), WithChunkRows(12)); err != nil {
		t.Fatal(err)
	}
	if float64(par.Len()) > float64(len(serial))*1.25 {
		t.Fatalf("chunking penalty too high: %d vs %d", par.Len(), len(serial))
	}
}

func TestDecompressAnyPlainStream(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	buf, err := Compress(data, []int{4}, 0.01, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressAny(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 4 {
		t.Fatal("wrong length")
	}
}

func TestParallelCorrupt(t *testing.T) {
	defer testutil.NoLeak(t)()
	buf, _ := legacyParallel(t, SZT)
	ctx := context.Background()
	for _, cut := range []int{0, 1, 3, 10, len(buf) / 2} {
		if _, _, err := decompressParallel(ctx, buf[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100; i++ {
		mut := append([]byte(nil), buf...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_, _, _ = decompressParallel(ctx, mut, nil) // must not panic
	}
	// Every length and CRC is valid, but the second chunk's trailing
	// dims disagree with the field's.
	if _, _, err := DecompressAny(misshapenParallel(t)); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("misshapen chunk: err = %v, want ErrCorrupted", err)
	}
}

func TestChunkStarts(t *testing.T) {
	s := chunkStarts(10, 3)
	if s[0] != 0 || s[3] != 10 {
		t.Fatalf("boundaries %v", s)
	}
	total := 0
	for c := 0; c < 3; c++ {
		w := s[c+1] - s[c]
		if w < 3 || w > 4 {
			t.Fatalf("uneven chunk %d: %v", c, s)
		}
		total += w
	}
	if total != 10 {
		t.Fatalf("chunks don't cover: %v", s)
	}
}
