package streamfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Salvage scan: structural recovery of a damaged stream container.
//
// A normal Reader aborts at the first malformed frame because it cannot
// trust anything downstream of damage. With the whole container in
// memory the geometry can be re-derived from two redundant sources —
// the per-frame length prefixes and the sealing index frame — so
// undamaged chunks on both sides of a corrupted frame are still
// recoverable:
//
//   - If the tail index frame verifies (its own CRC), it fixes every
//     chunk frame's offset exactly, so a chunk whose length prefix was
//     destroyed does not desynchronize the frames after it.
//   - Without the index (damaged or truncated away), the scan walks
//     frames forward trusting each length prefix; a chunk that fails
//     its CRC but has a plausible extent is skipped in place, and the
//     scan stops at the first structural break (everything after is
//     lost).
//
// The scan assumes in-place corruption (bit rot, zero-fill, torn
// writes) — inserted or deleted bytes shift all downstream offsets and
// degrade to the forward-scan behavior.
//
// Parity containers (version 0x02) upgrade the index-anchored scan from
// damage-tolerant to damage-repairing: a group that lost exactly one
// chunk, with its parity frame and all sibling chunks intact, gets that
// chunk reconstructed byte-identically by XOR and re-verified against
// the chunk CRC recorded in the sealed index. The forward scan cannot
// repair — without the index there is no trusted per-chunk CRC to prove
// a reconstruction against — so index loss degrades to skip-and-report.

// FrameInfo describes one chunk frame's salvage outcome.
type FrameInfo struct {
	// Seq is the chunk's field-order index.
	Seq int
	// Offset and End delimit the frame (tag byte through payload) in
	// the container, when known; End == 0 means the extent is unknown
	// (structure lost before this frame).
	Offset, End int64
	// Len is the frame's payload length (from the index when available,
	// else the frame's own prefix); zero when unknown.
	Len uint64
	// Payload is the CRC-verified chunk payload, nil when damaged.
	Payload []byte
	// Damaged reports that the frame could not be verified.
	Damaged bool
	// Repaired reports that the payload was reconstructed from the
	// group's parity frame and siblings (and re-verified) rather than
	// read intact.
	Repaired bool
	// Reason says why a damaged frame was rejected.
	Reason string
}

// ScanReport is the result of a salvage scan.
type ScanReport struct {
	Header Header
	// HeaderLen is the container offset where frames begin.
	HeaderLen int64
	// Frames has exactly Header.Chunks() entries, in field order.
	Frames []FrameInfo
	// Parity has one entry per parity group (nil for parity-free
	// containers); a parity frame's Payload is only kept while repair
	// runs and is nil in the returned report.
	Parity []FrameInfo
	// ChunkCRCs holds the per-chunk payload CRCs recorded in a verified
	// v2 index, nil otherwise.
	ChunkCRCs []uint32
	// IndexOK reports whether the tail index frame verified; when true,
	// frame offsets come from the index and a damaged frame cannot
	// desynchronize its successors.
	IndexOK bool
	// Truncated reports that the container ended before its structure
	// did (the failure shape of an interrupted dump).
	Truncated bool
}

// ScanSalvage scans an in-memory stream container, verifying what it
// can and repairing single-loss parity groups when the container
// carries parity frames and a verified index. It fails only when the
// header itself is unusable (no geometry to salvage against) or
// violates lim; any damage past the header is reported per frame
// instead.
func ScanSalvage(buf []byte, lim Limits) (*ScanReport, error) {
	sr, err := NewReaderLimits(bytes.NewReader(buf), lim)
	if err != nil {
		return nil, err
	}
	hdr := sr.Header()
	rep := &ScanReport{
		Header:    hdr,
		HeaderLen: sr.Consumed(),
		Frames:    make([]FrameInfo, hdr.Chunks()),
		Parity:    make([]FrameInfo, hdr.Groups()),
	}
	if hdr.ParityK == 0 {
		rep.Parity = nil
	}
	for i := range rep.Frames {
		rep.Frames[i].Seq = i
	}
	for g := range rep.Parity {
		rep.Parity[g].Seq = g
	}
	if ib, _, ok := findIndex(buf, rep.HeaderLen, &hdr); ok {
		rep.IndexOK = true
		rep.ChunkCRCs = ib.crcs
		scanWithIndex(buf, rep, ib, lim)
		repairGroups(rep)
		for g := range rep.Parity {
			rep.Parity[g].Payload = nil
		}
		return rep, nil
	}
	scanForward(buf, rep, lim)
	return rep, nil
}

// indexBody is a parsed, CRC-verified sealing index.
type indexBody struct {
	// lens holds each chunk frame's payload length.
	lens []uint64
	// plens holds each parity frame's payload length (v2 only).
	plens []uint64
	// crcs holds each chunk payload's CRC (v2 only).
	crcs []uint32
}

// The index rejections are fixed values: findIndex tries parseIndexAt at
// every candidate tag byte near the tail, and a rejection must cost no
// allocation there.
var (
	errIndexShort    = fmt.Errorf("%w (index frame)", ErrTruncated)
	errIndexVarint   = fmt.Errorf("%w: index varint overflows 64 bits", ErrCorrupt)
	errIndexGeometry = fmt.Errorf("%w: index counts disagree with the header geometry", ErrCorrupt)
	errIndexLength   = fmt.Errorf("%w: index frame length out of range", ErrCorrupt)
	errIndexTrailing = fmt.Errorf("%w: bytes follow the index frame", ErrCorrupt)
	errIndexCRC      = fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
)

// findIndex locates and verifies the sealing index frame near the tail:
// a tagIndex byte whose body parses (parseIndexAt) and ends exactly at
// the end of the buffer. The CRC makes a false positive on payload bytes
// vanishingly unlikely. The returned start is the tag byte's offset in
// buf (the seekable path checks it against the offsets the lengths
// imply; the salvage path does not need it).
func findIndex(buf []byte, headerLen int64, hdr *Header) (*indexBody, int64, bool) {
	// The smallest index frame is tag + count varint + CRC.
	for start := int64(len(buf)) - 6; start >= headerLen; start-- {
		if buf[start] != tagIndex {
			continue
		}
		if ib, err := parseIndexAt(buf[start+1:], hdr); err == nil {
			return ib, start, true
		}
	}
	return nil, 0, false
}

// indexVarint decodes the index varint at body[*off:] and advances *off.
func indexVarint(body []byte, off *int) (uint64, error) {
	v, k := binary.Uvarint(body[*off:])
	if k == 0 {
		return 0, errIndexShort
	}
	if k < 0 {
		return 0, errIndexVarint
	}
	*off += k
	return v, nil
}

// parseIndexAt is the one decoder of the index body: everything after
// the tag byte through the CRC, which it must consume exactly. The
// sequential Reader, OpenIndex and the salvage scan all call it. The
// counts must match the header's chunk and group geometry, every parity
// length its group's longest chunk, and the CRC the body; a body that
// ends early is ErrTruncated.
func parseIndexAt(body []byte, hdr *Header) (*indexBody, error) {
	chunks := hdr.Chunks()
	off := 0
	count, err := indexVarint(body, &off)
	if err != nil {
		return nil, err
	}
	if count != uint64(chunks) {
		return nil, errIndexGeometry
	}
	// Each length is at least one varint byte, so a count the remaining
	// body cannot possibly hold is rejected before the lengths slice is
	// allocated (a header declaring 2^40 chunks must not cost 8 TiB here).
	if count > uint64(len(body)) {
		return nil, errIndexShort
	}
	ib := &indexBody{lens: make([]uint64, chunks)}
	for i := range ib.lens {
		l, err := indexVarint(body, &off)
		if err != nil {
			return nil, err
		}
		if l == 0 || l > MaxFrameLen {
			return nil, errIndexLength
		}
		ib.lens[i] = l
	}
	if hdr.ParityK > 0 {
		groups := hdr.Groups()
		pc, err := indexVarint(body, &off)
		if err != nil {
			return nil, err
		}
		if pc != uint64(groups) {
			return nil, errIndexGeometry
		}
		ib.plens = make([]uint64, groups)
		for g := range ib.plens {
			l, err := indexVarint(body, &off)
			if err != nil {
				return nil, err
			}
			// A parity payload is exactly as long as the group's longest
			// chunk payload; anything else is not this container's index.
			if l != groupParityLen(ib.lens, hdr, g) {
				return nil, errIndexLength
			}
			ib.plens[g] = l
		}
		if len(body)-off < 4*chunks {
			return nil, errIndexShort
		}
		ib.crcs = make([]uint32, chunks)
		for i := range ib.crcs {
			ib.crcs[i] = binary.BigEndian.Uint32(body[off:])
			off += 4
		}
	}
	switch {
	case len(body)-off < 4:
		return nil, errIndexShort
	case len(body)-off > 4:
		return nil, errIndexTrailing
	case crc32.ChecksumIEEE(body[:off]) != binary.BigEndian.Uint32(body[off:]):
		return nil, errIndexCRC
	}
	return ib, nil
}

// groupParityLen returns the parity payload length group g must have:
// the longest chunk payload in the group.
func groupParityLen(lens []uint64, hdr *Header, g int) uint64 {
	lo, hi := hdr.GroupRange(g)
	var max uint64
	for i := lo; i < hi; i++ {
		if lens[i] > max {
			max = lens[i]
		}
	}
	return max
}

// frameLen returns the full on-disk frame size for a payload of l
// bytes: tag, length varint, CRC, payload.
func frameLen(l uint64) int64 {
	return int64(1+uvarintLen(l)+4) + int64(l)
}

// scanWithIndex verifies each frame at the offset the index implies; a
// frame that disagrees with the index in any way is damaged, but its
// successors keep their known offsets.
func scanWithIndex(buf []byte, rep *ScanReport, ib *indexBody, lim Limits) {
	offs, poffs := rep.Header.frameOffsets(rep.HeaderLen, ib.lens, ib.plens)
	for i := range rep.Frames {
		scanOneFrame(buf, rep, &rep.Frames[i], tagChunk, offs[i], ib.lens[i], lim)
	}
	for g := range rep.Parity {
		scanOneFrame(buf, rep, &rep.Parity[g], tagParity, poffs[g], ib.plens[g], lim)
	}
}

// scanOneFrame verifies one frame (chunk or parity) of want payload
// bytes at off, recording its extent in f and filling Payload or
// Damaged/Reason.
func scanOneFrame(buf []byte, rep *ScanReport, f *FrameInfo, tag byte, off int64, want uint64, lim Limits) {
	f.Offset, f.Len, f.End = off, want, off+frameLen(want)
	if want > lim.chunkCap() {
		f.Damaged = true
		f.Reason = fmt.Sprintf("chunk of %d bytes exceeds limit %d", want, lim.chunkCap())
		return
	}
	if f.End > int64(len(buf)) {
		f.Damaged = true
		f.Reason = "frame extends past the container"
		rep.Truncated = true
		return
	}
	payload, reason := checkFrame(buf[f.Offset:f.End], tag, want)
	if payload == nil {
		f.Damaged = true
		f.Reason = reason
		return
	}
	f.Payload = payload
}

// repairGroups reconstructs single-loss parity groups in place, under a
// verified index: for each group with exactly one damaged chunk, an
// intact parity frame, and all sibling chunks intact, reconstruct
// rebuilds the lost payload.
func repairGroups(rep *ScanReport) {
	for g := range rep.Parity {
		pf := &rep.Parity[g]
		if pf.Damaged || pf.Payload == nil {
			continue
		}
		lo, hi := rep.Header.GroupRange(g)
		victim, lost := -1, 0
		for i := lo; i < hi; i++ {
			if rep.Frames[i].Damaged {
				victim, lost = i, lost+1
			}
		}
		if lost != 1 {
			continue
		}
		f := &rep.Frames[victim]
		// The parity payload aliases the caller's buffer: XOR into a copy.
		rec, err := rep.Header.reconstruct(append([]byte(nil), pf.Payload...), victim, f.Len, rep.ChunkCRCs[victim],
			func(i int) ([]byte, error) { return rep.Frames[i].Payload, nil })
		if err != nil {
			// Reconstruction does not prove out (e.g. the index region
			// that survived its CRC is stale); the chunk stays lost.
			continue
		}
		f.Payload = rec
		f.Damaged = false
		f.Repaired = true
		f.Reason = ""
	}
}

// reconstruct is the one parity repair, shared by the salvage scan and
// the seekable path (RepairChunk). acc holds a private copy of the
// parity payload of chunk seq's group; every sibling payload, fetched
// through sibling, is XORed into it, and the first n bytes are the lost
// payload only if they match the chunk CRC the sealed index recorded.
// Parity payloads span the group's longest chunk, so no sibling is
// longer than acc.
func (h *Header) reconstruct(acc []byte, seq int, n uint64, crc uint32, sibling func(i int) ([]byte, error)) ([]byte, error) {
	lo, hi := h.GroupRange(seq / h.ParityK)
	for i := lo; i < hi; i++ {
		if i == seq {
			continue
		}
		src, err := sibling(i)
		if err != nil {
			return nil, err
		}
		for j, b := range src {
			acc[j] ^= b
		}
	}
	rec := acc[:n]
	if crc32.ChecksumIEEE(rec) != crc {
		return nil, fmt.Errorf("%w: chunk %d: parity reconstruction failed its recorded CRC", ErrCorrupt, seq)
	}
	return rec, nil
}

// checkFrame is the one check of an in-memory frame region against the
// tag and payload length the index expects, returning the payload or a
// rejection reason.
func checkFrame(frame []byte, tag byte, want uint64) ([]byte, string) {
	if frame[0] != tag {
		return nil, fmt.Sprintf("frame tag 0x%02x", frame[0])
	}
	plen, k := binary.Uvarint(frame[1:])
	if k <= 0 || plen != want {
		return nil, fmt.Sprintf("length prefix %d disagrees with index (%d)", plen, want)
	}
	// A corrupted, non-canonically-wide varint can claim the right value
	// in too many bytes; the CRC and payload must still fit the extent
	// the index implies.
	crcOff := 1 + k
	if crcOff+4+int(want) != len(frame) {
		return nil, "length prefix width disagrees with index extent"
	}
	crc := binary.BigEndian.Uint32(frame[crcOff:])
	payload := frame[crcOff+4:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, "checksum mismatch"
	}
	return payload, ""
}

// scanForward walks frames trusting per-frame length prefixes (the
// no-index fallback). A CRC-failed frame with a plausible extent is
// skipped in place; the first structural break loses the rest. No
// repair is attempted on this path — without the index there is no
// trusted chunk CRC to prove a reconstruction against.
func scanForward(buf []byte, rep *ScanReport, lim Limits) {
	off := rep.HeaderLen
	g := 0
	for i := range rep.Frames {
		f := &rep.Frames[i]
		ok, next := scanForwardFrame(buf, rep, f, tagChunk, i, off, lim)
		if !ok {
			return
		}
		off = next
		if rep.Header.closesGroup(i) && f.End != 0 {
			p := &rep.Parity[g]
			ok, next := scanForwardFrame(buf, rep, p, tagParity, i+1, off, lim)
			if !ok {
				return
			}
			off = next
			g++
		}
	}
	for ; g < len(rep.Parity); g++ {
		p := &rep.Parity[g]
		if p.End == 0 && !p.Damaged {
			p.Damaged, p.Reason = true, "container ended"
		}
	}
}

// scanForwardFrame parses one frame at off trusting its own length
// prefix. It returns false when the structure is lost (everything from
// chunk restAt on has been marked), else the offset past the frame. A
// frame that merely fails its CRC keeps a valid extent and is skipped
// in place.
func scanForwardFrame(buf []byte, rep *ScanReport, f *FrameInfo, tag byte, restAt int, off int64, lim Limits) (bool, int64) {
	f.Offset = off
	if off >= int64(len(buf)) {
		f.Damaged, f.Reason, f.Offset = true, "container ended", 0
		rep.Truncated = true
		return true, off
	}
	if buf[off] != tag {
		// Unknown tag with no index to resync against: the frame
		// boundary is lost for good.
		markRest(rep, restAt, fmt.Sprintf("cannot resync past frame tag 0x%02x without an index", buf[off]))
		return false, 0
	}
	plen, k := binary.Uvarint(buf[off+1:])
	if k <= 0 || plen == 0 || plen > MaxFrameLen {
		markRest(rep, restAt, "unparseable length prefix and no index to resync against")
		return false, 0
	}
	if plen > lim.chunkCap() {
		markRest(rep, restAt, fmt.Sprintf("chunk of %d bytes exceeds limit %d", plen, lim.chunkCap()))
		return false, 0
	}
	f.Len = plen
	f.End = off + int64(1+k+4) + int64(plen)
	if f.End > int64(len(buf)) {
		f.Damaged, f.Reason = true, "frame extends past the container"
		rep.Truncated = true
		markRest(rep, restAt+1, "container ended")
		return false, 0
	}
	if payload, reason := checkFrame(buf[off:f.End], tag, plen); payload == nil {
		f.Damaged, f.Reason = true, reason
	} else if tag == tagChunk {
		f.Payload = payload
	}
	return true, f.End
}

// markRest damages every chunk frame from i on — and, for parity
// containers, every parity frame from i's group on — with reason
// (offsets unknown).
func markRest(rep *ScanReport, i int, reason string) {
	for j := i; j < len(rep.Frames); j++ {
		f := &rep.Frames[j]
		f.Damaged, f.Reason = true, reason
		f.End = 0
	}
	if k := rep.Header.ParityK; k > 0 {
		for g := i / k; g < len(rep.Parity); g++ {
			p := &rep.Parity[g]
			if p.Payload == nil && !p.Damaged {
				p.Damaged, p.Reason, p.End = true, reason, 0
			}
		}
	}
	rep.Truncated = true
}

// uvarintLen returns the encoded width of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
