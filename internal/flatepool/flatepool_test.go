package flatepool

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// sample returns n compressible bytes.
func sample(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(16))
	}
	return b
}

// TestDeflateMatchesNewWriter: a reused compressor emits exactly the
// bytes of a freshly built BestSpeed writer, call after call.
func TestDeflateMatchesNewWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 70000, 300000, 5} {
		src := sample(rng, n)
		got, err := Deflate(src)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		zw, err := flate.NewWriter(&want, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("n=%d: pooled Deflate differs from a new writer", n)
		}
	}
}

func TestInflateLimit(t *testing.T) {
	src := sample(rand.New(rand.NewSource(2)), 5000)
	z, err := Deflate(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Inflate(z, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("at the limit: err %v, equal %v", err, bytes.Equal(got, src))
	}
	if _, err := Inflate(z, len(src)-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("one byte over the limit: err = %v, want ErrTooLarge", err)
	}
	if _, err := Inflate(z[:len(z)/2], len(src)); err == nil {
		t.Fatal("truncated stream inflated without error")
	}
}

// TestConcurrentRoundTrip shares the pools between goroutines; run it
// under -race.
func TestConcurrentRoundTrip(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				src := sample(rng, rng.Intn(20000))
				z, err := Deflate(src)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := Inflate(z, len(src))
				if err != nil || !bytes.Equal(got, src) {
					t.Errorf("round trip of %d bytes: err %v", len(src), err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
