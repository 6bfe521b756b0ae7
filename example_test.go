package repro_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro"
)

// ExampleCompress shows the basic point-wise-relative round trip with the
// paper's transform scheme.
func ExampleCompress() {
	data := []float64{1.0, 0.001, 250.0, -3.5, 0.0, 1e-6}
	buf, err := repro.Compress(data, []int{6}, 1e-3, repro.SZT, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dec, dims, err := repro.Decompress(buf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	worst := 0.0
	for i, o := range data {
		if o == 0 {
			continue
		}
		if r := math.Abs(dec[i]-o) / math.Abs(o); r > worst {
			worst = r
		}
	}
	fmt.Println("dims:", dims)
	fmt.Println("zero preserved:", dec[4] == 0)
	fmt.Println("within 0.1%:", worst <= 1e-3)
	// Output:
	// dims: [6]
	// zero preserved: true
	// within 0.1%: true
}

// ExampleAlgorithmOf shows stream introspection.
func ExampleAlgorithmOf() {
	buf, _ := repro.Compress([]float64{1, 2, 3, 4}, []int{4}, 0.01, repro.FPZIP, nil)
	algo, _ := repro.AlgorithmOf(buf)
	fmt.Println(algo)
	// Output:
	// FPZIP
}

// ExampleNewArchiveStreamWriter bundles two fields into one snapshot
// archive and reads one back by name.
func ExampleNewArchiveStreamWriter() {
	var archive bytes.Buffer
	w, err := repro.NewArchiveStreamWriter(&archive)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for name, vals := range map[string][]float64{
		"density":  {0.1, 0.2, 0.4, 0.8},
		"velocity": {-10, 20, -30, 40},
	} {
		buf, _ := repro.Compress(vals, []int{4}, 1e-3, repro.SZT, nil)
		_ = w.AddCompressed(name, buf)
	}
	if err := w.Close(); err != nil {
		fmt.Println("error:", err)
		return
	}

	r, err := repro.OpenArchive(archive.Bytes())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("fields:", r.SortedFields())
	dec, _, _ := r.Field("velocity")
	fmt.Println("velocity sign pattern ok:", dec[0] < 0 && dec[1] > 0)
	// Output:
	// fields: [density velocity]
	// velocity sign pattern ok: true
}

// ExampleCompressStreamOpts compresses an in-memory field with a worker
// pool; the container remains self-describing.
func ExampleCompressStreamOpts() {
	data := make([]float64, 64*64)
	raw := make([]byte, 0, len(data)*8)
	for i := range data {
		data[i] = 1 + float64(i%64)*0.01
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(data[i]))
	}
	var buf bytes.Buffer
	st, err := repro.CompressStreamOpts(bytes.NewReader(raw), &buf, []int{64, 64}, 1e-3, repro.SZT,
		repro.WithWorkers(4), repro.WithChunkRows(16))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dec, dims, err := repro.DecompressAny(buf.Bytes())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("chunks:", st.Chunks, "dims:", dims, "points:", len(dec))
	// Output:
	// chunks: 4 dims: [64 64] points: 4096
}
