package repro

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/bitio"
)

// Archive bundles many named compressed fields into one stream with an
// index — the shape of a simulation snapshot (e.g. NYX's six fields or
// CESM-ATM's dozens) as one object. Fields are individually compressed
// (possibly with different algorithms and bounds) and individually
// retrievable without decoding the others.
//
// Three layouts exist; only v3 is written today. v1 (magic 0xC7) packs
// blobs back to back with only lengths in the directory, so offsets are
// implicit. v2 (magic 0xC9) records each blob's offset explicitly,
// directory up front:
//
//	archive := magic(0xC9) version(0x01) uvarint(count) entry*
//	           crc32be(blob area) blob area
//	entry   := uvarint(name len) name uvarint(offset) uvarint(blob len)
//
// with offsets relative to the start of the blob area. Both are
// decode-only: earlier versions of this package wrote them. v3 (magic
// 0xCA, what ArchiveStreamWriter emits) moves the directory to the tail
// so blobs can stream to the sink as fields complete, before their
// sizes are known:
//
//	archive := magic(0xCA) version(0x01) blob area dir trailer
//	dir     := uvarint(count) entry*            // same entry grammar as v2
//	trailer := crc32be(dir) crc32be(blob area) u64be(dir len)
//
// OpenArchive reads all three, and validates v2/v3 directories
// structurally before touching any blob: every entry must lie inside
// the blob area and no two entries may overlap, so a crafted directory
// cannot alias one blob's bytes into another field or reach outside the
// container. OpenArchiveStream (archive_stream.go) reads the v3 layout
// off an io.ReadSeeker — trailer and directory only — and serves
// per-field seekable StreamHandles without touching sibling blobs.

const (
	archiveMagic   = 0xC7 // v1: implicit sequential offsets
	archiveMagicV2 = 0xC9 // v2: explicit per-entry offsets, directory first
	archiveMagicV3 = 0xCA // v3: explicit per-entry offsets, directory sealed at the tail
	archiveV2Ver   = 0x01
	archiveV3Ver   = 0x01

	// archiveV3TrailerLen is the fixed tail: directory CRC, blob-area
	// CRC, directory length.
	archiveV3TrailerLen = 4 + 4 + 8

	maxArchiveFields = 1 << 20
	maxFieldName     = 4096
)

// ArchiveReader indexes an archive for random field access.
type ArchiveReader struct {
	names  []string
	blobs  [][]byte
	byName map[string][]byte
	limits *DecodeLimits
}

// OpenArchive parses an in-memory archive: the v3 layout
// ArchiveStreamWriter emits, or the legacy v1/v2 layouts earlier
// versions of this package wrote.
func OpenArchive(buf []byte) (*ArchiveReader, error) {
	return OpenArchiveLimits(buf, nil)
}

// OpenArchiveLimits is OpenArchive with decode limits (nil = unlimited):
// MaxFields bounds the directory, MaxChunkBytes bounds each blob, and
// both are enforced while parsing the directory, before any blob-sized
// work. The limits are retained by the reader and applied again when
// Field decodes a blob.
func OpenArchiveLimits(buf []byte, limits *DecodeLimits) (_ *ArchiveReader, err error) {
	defer recoverDecode(&err)
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: %d-byte archive", ErrTruncated, len(buf))
	}
	switch buf[0] {
	case archiveMagic:
		return openArchiveV1(buf, limits)
	case archiveMagicV2:
		if buf[1] != archiveV2Ver {
			return nil, fmt.Errorf("%w: archive v2 version 0x%02x", ErrUnsupportedFormat, buf[1])
		}
		return openArchiveV2(buf, limits)
	case archiveMagicV3:
		if buf[1] != archiveV3Ver {
			return nil, fmt.Errorf("%w: archive v3 version 0x%02x", ErrUnsupportedFormat, buf[1])
		}
		return openArchiveV3(buf, limits)
	default:
		return nil, fmt.Errorf("%w: leading byte 0x%02x is not an archive", ErrUnsupportedFormat, buf[0])
	}
}

func openArchiveV1(buf []byte, limits *DecodeLimits) (*ArchiveReader, error) {
	entries, off, err := parseDir(buf, 1, false, uint64(len(buf)), limits)
	if err != nil {
		return nil, err
	}
	if off+4 > len(buf) {
		return nil, fmt.Errorf("%w (archive checksum)", ErrTruncated)
	}
	wantCRC := binary.BigEndian.Uint32(buf[off:])
	off += 4
	var total uint64
	if n := len(entries); n > 0 {
		total = entries[n-1].off + entries[n-1].len
	}
	if total > uint64(len(buf)-off) {
		return nil, fmt.Errorf("%w: blobs overrun the archive", ErrTruncated)
	}
	area := buf[off : off+int(total)]
	if crc32.ChecksumIEEE(area) != wantCRC {
		return nil, fmt.Errorf("%w: archive checksum mismatch", ErrCorrupt)
	}
	return newArchiveReader(entries, area, limits), nil
}

// dirEntry is one parsed directory entry: a field name plus its blob
// extent, offset relative to the blob-area start.
type dirEntry struct {
	name     string
	off, len uint64
}

// parseDir is the one decoder of the directory grammar of every archive
// version: uvarint(count) then count entries at buf[off:], enforcing the
// count bounds, name bounds, uniqueness, and MaxChunkBytes per blob. A
// v2/v3 entry records its blob offset explicitly; a v1 entry (explicit
// false) does not, and its blob follows the previous one. extentCap is
// the largest plausible blob offset or length — the container size —
// rejecting absurd values before validateExtents proves the precise
// geometry. It returns the entries and the offset just past the
// directory.
func parseDir(buf []byte, off int, explicit bool, extentCap uint64, limits *DecodeLimits) ([]dirEntry, int, error) {
	count, k := bitio.Uvarint(buf[off:])
	if k == 0 || count > maxArchiveFields {
		return nil, 0, fmt.Errorf("%w: archive field count", ErrCorrupt)
	}
	off += k
	// The smallest entry is a one-byte name length, a one-byte name and
	// one-byte varints, so a count beyond (remaining bytes)/minEntry is
	// structurally impossible and is rejected before it sizes anything.
	minEntry := uint64(3)
	if explicit {
		minEntry = 4
	}
	if count > uint64(len(buf)-off)/minEntry {
		return nil, 0, fmt.Errorf("%w: %d fields declared in %d bytes", ErrCorrupt, count, len(buf)-off)
	}
	if err := limits.checkFields(int(count)); err != nil {
		return nil, 0, err
	}
	entries := make([]dirEntry, count)
	seen := make(map[string]bool, count)
	var next uint64 // the implicit v1 offset
	for i := range entries {
		nlen, k := bitio.Uvarint(buf[off:])
		if k == 0 || nlen == 0 || nlen > maxFieldName || nlen > uint64(len(buf)-off-k) {
			return nil, 0, fmt.Errorf("%w: archive entry %d name", ErrCorrupt, i)
		}
		off += k
		name := string(buf[off : off+int(nlen)])
		off += int(nlen)
		boff := next
		if explicit {
			if boff, k = bitio.Uvarint(buf[off:]); k == 0 || boff > extentCap {
				return nil, 0, fmt.Errorf("%w: archive entry %d offset", ErrCorrupt, i)
			}
			off += k
		}
		blen, k := bitio.Uvarint(buf[off:])
		if k == 0 || blen > extentCap {
			return nil, 0, fmt.Errorf("%w: archive entry %d length", ErrCorrupt, i)
		}
		if err := limits.checkChunkBytes(int64(blen)); err != nil {
			return nil, 0, err
		}
		off += k
		if seen[name] {
			return nil, 0, fmt.Errorf("%w: duplicate field %q", ErrCorrupt, name)
		}
		seen[name] = true
		entries[i] = dirEntry{name: name, off: boff, len: blen}
		next = boff + blen
	}
	return entries, off, nil
}

// validateExtents proves a parsed directory is geometrically honest:
// every entry lies inside the areaSize-byte blob area and no two
// entries overlap — a directory aliasing two fields onto the same bytes
// or reaching outside the container is forged, not damaged.
func validateExtents(entries []dirEntry, areaSize uint64) error {
	for i := range entries {
		hi := entries[i].off + entries[i].len
		if hi > areaSize || hi < entries[i].off {
			return fmt.Errorf("%w: field %q at [%d,%d) outside the %d-byte blob area",
				ErrCorrupt, entries[i].name, entries[i].off, hi, areaSize)
		}
	}
	sorted := append([]dirEntry(nil), entries...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].off < sorted[b].off })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].off < sorted[i-1].off+sorted[i-1].len {
			return fmt.Errorf("%w: fields %q and %q overlap in the blob area",
				ErrCorrupt, sorted[i-1].name, sorted[i].name)
		}
	}
	return nil
}

// newArchiveReader builds a reader over a validated blob area.
func newArchiveReader(entries []dirEntry, area []byte, limits *DecodeLimits) *ArchiveReader {
	r := &ArchiveReader{byName: make(map[string][]byte, len(entries)), limits: limits}
	for _, e := range entries {
		blob := area[e.off : e.off+e.len]
		r.names = append(r.names, e.name)
		r.blobs = append(r.blobs, blob)
		r.byName[e.name] = blob
	}
	return r
}

func openArchiveV2(buf []byte, limits *DecodeLimits) (*ArchiveReader, error) {
	entries, off, err := parseDir(buf, 2, true, uint64(len(buf)), limits)
	if err != nil {
		return nil, err
	}
	if off+4 > len(buf) {
		return nil, fmt.Errorf("%w (archive checksum)", ErrTruncated)
	}
	wantCRC := binary.BigEndian.Uint32(buf[off:])
	off += 4
	area := buf[off:]
	if err := validateExtents(entries, uint64(len(area))); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(area) != wantCRC {
		return nil, fmt.Errorf("%w: archive checksum mismatch", ErrCorrupt)
	}
	return newArchiveReader(entries, area, limits), nil
}

// openArchiveV3 parses the tail-directory layout from a full in-memory
// buffer, verifying both trailer CRCs (directory and blob area) before
// any blob is served — the whole-container trust model of v1/v2. The
// random-access path over the same layout is OpenArchiveStream, which
// verifies the directory CRC only and leans on the per-chunk CRCs of
// the stream containers inside.
func openArchiveV3(buf []byte, limits *DecodeLimits) (*ArchiveReader, error) {
	entries, areaLen, blobCRC, err := readArchiveV3Dir(bytes.NewReader(buf), int64(len(buf)), limits)
	if err != nil {
		return nil, err
	}
	area := buf[2 : 2+areaLen]
	if crc32.ChecksumIEEE(area) != blobCRC {
		return nil, fmt.Errorf("%w: archive checksum mismatch", ErrCorrupt)
	}
	return newArchiveReader(entries, area, limits), nil
}

// readArchiveV3Dir is the one decoder of the v3 trailer and directory,
// behind both OpenArchive and OpenArchiveStream. src holds a size-byte
// container whose magic and version are already checked, and only its
// trailer and directory are read: the directory length must fit the
// container, the directory must pass its CRC and the shared entry
// grammar with nothing left over, and every extent must lie inside the
// blob area without overlap. It returns the entries (offsets relative
// to the blob area), the blob-area length, and the blob-area CRC the
// trailer records, which only a caller holding the whole area checks.
func readArchiveV3Dir(src io.ReadSeeker, size int64, limits *DecodeLimits) (_ []dirEntry, areaLen int64, blobCRC uint32, err error) {
	// Smallest valid container: magic, version, empty directory (one
	// count byte), trailer.
	if size < 2+1+archiveV3TrailerLen {
		return nil, 0, 0, fmt.Errorf("%w: %d-byte archive", ErrTruncated, size)
	}
	var trailer [archiveV3TrailerLen]byte
	if err := readArchiveAt(src, size-archiveV3TrailerLen, trailer[:], "trailer"); err != nil {
		return nil, 0, 0, err
	}
	dirCRC := binary.BigEndian.Uint32(trailer[0:])
	blobCRC = binary.BigEndian.Uint32(trailer[4:])
	dirLen := binary.BigEndian.Uint64(trailer[8:])
	if dirLen < 1 || dirLen > uint64(size-2-archiveV3TrailerLen) {
		return nil, 0, 0, fmt.Errorf("%w: archive directory of %d bytes in a %d-byte container",
			ErrCorrupt, dirLen, size)
	}
	dirOff := size - archiveV3TrailerLen - int64(dirLen)
	// The allocation is bounded by the container's real size, proven by
	// the dirLen check above — the same discipline as the stream index
	// window.
	dir := make([]byte, dirLen)
	if err := readArchiveAt(src, dirOff, dir, "directory"); err != nil {
		return nil, 0, 0, err
	}
	if crc32.ChecksumIEEE(dir) != dirCRC {
		return nil, 0, 0, fmt.Errorf("%w: archive directory checksum mismatch", ErrCorrupt)
	}
	entries, off, err := parseDir(dir, 0, true, uint64(size), limits)
	if err != nil {
		return nil, 0, 0, err
	}
	if off != len(dir) {
		return nil, 0, 0, fmt.Errorf("%w: %d trailing bytes in the %d-entry archive directory",
			ErrCorrupt, len(dir)-off, len(entries))
	}
	areaLen = dirOff - 2
	if err := validateExtents(entries, uint64(areaLen)); err != nil {
		return nil, 0, 0, err
	}
	return entries, areaLen, blobCRC, nil
}

// readArchiveAt fills p from src at offset off; what names the archive
// part in errors.
func readArchiveAt(src io.ReadSeeker, off int64, p []byte, what string) error {
	if _, err := src.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("repro: seeking archive %s: %w", what, err)
	}
	if _, err := io.ReadFull(src, p); err != nil {
		return fmt.Errorf("repro: reading archive %s: %w", what, err)
	}
	return nil
}

// Fields returns the field names in archive order.
func (r *ArchiveReader) Fields() []string {
	return append([]string(nil), r.names...)
}

// SortedFields returns the field names sorted lexicographically.
func (r *ArchiveReader) SortedFields() []string {
	out := r.Fields()
	sort.Strings(out)
	return out
}

// Raw returns the compressed stream of a field without decoding it.
func (r *ArchiveReader) Raw(name string) ([]byte, error) {
	blob, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("repro: no field %q in archive", name)
	}
	return blob, nil
}

// Field decompresses one field by name, under the limits the archive was
// opened with.
func (r *ArchiveReader) Field(name string) (_ []float64, _ []int, err error) {
	defer recoverDecode(&err)
	blob, err := r.Raw(name)
	if err != nil {
		return nil, nil, err
	}
	return DecompressAnyLimits(blob, r.limits)
}
