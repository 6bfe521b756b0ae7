package testutil

import (
	"bytes"
	"compress/flate"
	"runtime"
	"testing"
)

// DeflateZeros returns a DEFLATE stream that inflates to mib MiB of zero
// bytes, at about 1 KiB of stream per MiB: one flushed MiB of zeros,
// repeated (every back-reference lands on zeros), then an empty final
// block.
func DeflateZeros(tb testing.TB, mib int) []byte {
	tb.Helper()
	var one bytes.Buffer
	zw, err := flate.NewWriter(&one, flate.BestCompression)
	if err == nil {
		_, err = zw.Write(make([]byte, 1<<20))
	}
	if err == nil {
		err = zw.Flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	out := bytes.Repeat(one.Bytes(), mib)
	return append(out, 0x01, 0x00, 0x00, 0xff, 0xff) // final empty stored block
}

// AllocBytes returns the bytes f allocates in one call, measured as the
// growth of the runtime's cumulative allocation counter.
func AllocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
