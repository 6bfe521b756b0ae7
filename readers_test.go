package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/streamfmt"
	"repro/internal/testutil"
)

// streamReaders runs a container through the three strict 0xC8 readers:
// the in-memory DecompressAny, the sequential DecompressStreamOpts and
// the seekable OpenStream (plus a full-range ReadRows when it opens).
func streamReaders(buf []byte) map[string]error {
	_, _, anyErr := DecompressAny(buf)
	_, seqErr := DecompressStreamOpts(bytes.NewReader(buf), io.Discard)
	h, seekErr := OpenStream(bytes.NewReader(buf))
	if seekErr == nil {
		seekErr = h.ReadRows(make([]float64, h.Rows()*uint64(h.RowStride())), 0, h.Rows())
	}
	return map[string]error{"DecompressAny": anyErr, "DecompressStreamOpts": seqErr, "OpenStream": seekErr}
}

// TestStreamTrailingBytesRejected pins that every strict reader ends a
// container at its index frame: bytes after a sealed index are
// ErrCorrupted on the sequential paths too, not only on OpenStream.
func TestStreamTrailingBytesRejected(t *testing.T) {
	for _, k := range []int{0, 4} {
		stream := fuzzStreamContainerParity(1, k)
		if stream == nil {
			t.Fatalf("parity %d: building the container failed", k)
		}
		for name, err := range streamReaders(stream) {
			if err != nil {
				t.Fatalf("parity %d: %s rejects the clean container: %v", k, name, err)
			}
		}
		tail := append(append([]byte(nil), stream...), 0xAB, 0xCD, 0xEF)
		for name, err := range streamReaders(tail) {
			if !errors.Is(err, ErrCorrupted) {
				t.Fatalf("parity %d: %s with 3 trailing bytes: err = %v, want ErrCorrupted", k, name, err)
			}
		}
	}
}

// TestStreamPaddedLengthPrefixRejected pins that a chunk frame whose
// length prefix is wider than its shortest encoding is rejected by every
// strict reader alike. The seekable reader places frames by the shortest
// encoding, so the sequential reader must not accept what it refuses.
func TestStreamPaddedLengthPrefixRejected(t *testing.T) {
	stream := fuzzStreamContainer(3)
	rep, err := streamfmt.ScanSalvage(stream, streamfmt.Limits{})
	if err != nil || !rep.IndexOK {
		t.Fatalf("ScanSalvage on the clean container: %v", err)
	}
	// Re-encode chunk 1's length prefix with one redundant 0x80 byte.
	f := rep.Frames[1]
	_, k := binary.Uvarint(stream[f.Offset+1:])
	prefix := binary.AppendUvarint(nil, f.Len)
	prefix[len(prefix)-1] |= 0x80
	prefix = append(prefix, 0x00)
	mut := append([]byte(nil), stream[:f.Offset+1]...)
	mut = append(mut, prefix...)
	mut = append(mut, stream[f.Offset+1+int64(k):]...)
	for name, err := range streamReaders(mut) {
		if !errors.Is(err, ErrCorrupted) {
			t.Fatalf("%s with a padded length prefix: err = %v, want ErrCorrupted", name, err)
		}
	}
}

// TestStreamHeaderAllocBounded pins that a stream header sizes nothing
// before frames prove it: an 11-byte container declaring 2^24 one-row
// chunks must fail typed on every strict reader, and a table of 8 bytes
// per declared chunk (134 MB here) must not be allocated up front.
func TestStreamHeaderAllocBounded(t *testing.T) {
	buf := []byte{streamfmt.Magic, streamfmt.Version, byte(SZT), 1}
	buf = binary.AppendUvarint(buf, 1<<24) // dims[0]
	buf = append(buf, 1)                   // chunk rows
	buf = append(buf, 0x01, 0x05)          // chunk frame cut inside its CRC
	if len(buf) != 11 {
		t.Fatalf("hostile container is %d bytes, want 11", len(buf))
	}
	for name, run := range map[string]func() error{
		"DecompressAny": func() error { _, _, err := DecompressAny(buf); return err },
		"DecompressStreamOpts": func() error {
			_, err := DecompressStreamOpts(bytes.NewReader(buf), io.Discard)
			return err
		},
		"OpenStream": func() error { _, err := OpenStream(bytes.NewReader(buf)); return err },
	} {
		var err error
		n := testutil.AllocBytes(func() { err = run() })
		if !errors.Is(err, ErrCorrupted) {
			t.Fatalf("%s: err = %v, want ErrCorrupted", name, err)
		}
		if n > 1<<20 {
			t.Fatalf("%s allocated %d bytes for an 11-byte container, limit 1 MiB", name, n)
		}
	}
}
