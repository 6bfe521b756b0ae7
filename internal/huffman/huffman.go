// Package huffman implements a canonical Huffman coder over integer symbol
// alphabets. It is the entropy stage of the SZ re-implementation (encoding
// linear-scaling quantization codes, alphabets up to 2^16+1 symbols) and of
// the FPZIP residual coder (bit-length alphabets).
//
// Codes are canonical: only the code lengths are serialized, and both sides
// rebuild identical code books, which keeps headers small and decoding
// table-driven.
//
// Every table is sized to the symbols present, never to the alphabet. SZ
// rebuilds its code book for every chunk over a 65,537-symbol alphabet of
// which a chunk uses a few dozen to a few thousand symbols, so per-chunk
// set-up costs O(symbols present + values), plus a decode lookup table of
// at most 2^lutMaxBits entries.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitio"
)

// MaxCodeLen is the longest admissible code. Lengths are forced below this
// bound by the package-depth limiting pass, so a length always fits in 6 bits.
const MaxCodeLen = 58

var (
	// ErrInvalidTable indicates a corrupted serialized code table.
	ErrInvalidTable = errors.New("huffman: invalid code table")
	// ErrBadSymbol indicates an attempt to encode a symbol that had zero
	// frequency when the code book was built.
	ErrBadSymbol = errors.New("huffman: symbol absent from code book")
)

// Codec holds a canonical Huffman code book for symbols in [0, alphabet).
type Codec struct {
	alphabet int
	syms     []int    // present symbols, ascending
	lens     []uint8  // code length of syms[i]
	codes    []uint64 // canonical code of syms[i]

	// Decoding: symbols ranked by (length, symbol), and the first code
	// value and first rank at each length. firstIndex[maxLen+1] is the
	// number of present symbols.
	firstCode  [MaxCodeLen + 2]uint64
	firstIndex [MaxCodeLen + 2]int
	symByOrder []uint32
	maxLen     uint8
	minLen     uint8

	// lut accelerates decoding of codes up to lutBits long: indexed by the
	// next lutBits of the stream, each entry holds symbol<<6 | length
	// (plus 1 so 0 means "no short code here; take the slow path").
	lut     []uint32
	lutBits uint
}

// lutMaxBits caps the fast-path table at 2^12 entries (16 KiB), which
// covers the code lengths that dominate SZ quantization-code streams.
const lutMaxBits = 12

// Build constructs a canonical code book from the frequency table freqs,
// indexed by symbol. Symbols with zero frequency receive no code.
func Build(freqs []uint64) (*Codec, error) {
	k := 0
	for _, f := range freqs {
		if f > 0 {
			k++
		}
	}
	syms := make([]int, 0, k)
	present := make([]uint64, 0, k)
	for sym, f := range freqs {
		if f > 0 {
			syms = append(syms, sym)
			present = append(present, f)
		}
	}
	c, err := build(len(freqs), syms, present)
	if err != nil {
		return nil, err
	}
	c.buildLUT()
	return c, nil
}

// build makes the code book (without the decode lookup table) for the
// present symbols syms, ascending, with nonzero frequencies freqs.
func build(alphabet int, syms []int, freqs []uint64) (*Codec, error) {
	if len(syms) == 0 {
		return nil, errors.New("huffman: empty frequency table")
	}
	c := &Codec{alphabet: alphabet, syms: syms, lens: codeLengths(freqs)}
	c.assign()
	return c, nil
}

// codeLengths returns the Huffman code length of each of the nonzero
// frequencies freqs, limited to MaxCodeLen. Nodes 0..n-1 are the leaves
// and n..2n-2 the merged nodes in creation order; the least-weight node
// is merged first, ties going to the lower id, so the lengths (and the
// stream bytes) are deterministic.
func codeLengths(freqs []uint64) []uint8 {
	n := len(freqs)
	lens := make([]uint8, n)
	if n == 1 {
		// Single symbol: give it a 1-bit code so the stream is decodable.
		lens[0] = 1
		return lens
	}
	h := nodeHeap{weight: make([]uint64, 2*n-1), ids: make([]int, n)}
	copy(h.weight, freqs)
	for i := range h.ids {
		h.ids[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	parent := make([]int, 2*n-1)
	for next := n; next < 2*n-1; next++ {
		a, b := h.pop(), h.pop()
		h.weight[next] = h.weight[a] + h.weight[b]
		parent[a], parent[b] = next, next
		h.push(next)
	}
	// Parents are created after their children, so one downward sweep
	// from the root (the last node) sets every depth.
	depth := make([]uint8, 2*n-1)
	for id := 2*n - 3; id >= 0; id-- {
		depth[id] = depth[parent[id]] + 1
	}
	copy(lens, depth[:n])
	limitDepths(lens, MaxCodeLen)
	return lens
}

// nodeHeap is a binary min-heap of node ids ordered by (weight, id).
type nodeHeap struct {
	weight []uint64
	ids    []int
}

func (h *nodeHeap) less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	return h.weight[a] < h.weight[b] || h.weight[a] == h.weight[b] && a < b
}

func (h *nodeHeap) down(i int) {
	for {
		m, l := i, 2*i+1
		if l < len(h.ids) && h.less(l, m) {
			m = l
		}
		if r := l + 1; r < len(h.ids) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.ids[i], h.ids[m] = h.ids[m], h.ids[i]
		i = m
	}
}

func (h *nodeHeap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	h.down(0)
	return top
}

func (h *nodeHeap) push(id int) {
	h.ids = append(h.ids, id)
	for i := len(h.ids) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.ids[i], h.ids[p] = h.ids[p], h.ids[i]
		i = p
	}
}

// limitDepths enforces a maximum code length using the standard
// Kraft-inequality repair: overlong codes are clipped and shorter codes are
// lengthened until the Kraft sum is feasible again.
func limitDepths(lengths []uint8, maxLen uint8) {
	over := false
	for _, l := range lengths {
		if l > maxLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	// Kraft budget in units of 2^-maxLen.
	budget := uint64(1) << maxLen
	var used uint64
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxLen {
			lengths[i] = maxLen
			l = maxLen
		}
		used += uint64(1) << (maxLen - l)
	}
	// Lengthen the shortest codes until feasible.
	for used > budget {
		// find a symbol with the smallest length < maxLen to demote
		best := -1
		for i, l := range lengths {
			if l > 0 && l < maxLen && (best == -1 || l < lengths[best]) {
				best = i
			}
		}
		if best == -1 {
			// Invariant: with ≤ 2^24 symbols at lengths ≤ MaxCodeLen = 58 the
			// Kraft sum always becomes feasible (used ≤ count ≪ 2^58), so a
			// demotable symbol exists; encode-side only — ParseTable
			// validates Kraft on decode instead of repairing.
			panic("huffman: cannot satisfy Kraft inequality") //lint:allow nopanic caller invariant, not input-driven
		}
		used -= uint64(1) << (maxLen - lengths[best])
		lengths[best]++
		used += uint64(1) << (maxLen - lengths[best])
	}
}

// assign derives the canonical codes and the decode ranking from c.lens.
// Symbols are ranked by (length, symbol) with a counting sort over
// lengths, stable because c.syms is ascending; each length's first code
// follows the previous length's last, shifted left one bit.
func (c *Codec) assign() {
	var perLen [MaxCodeLen + 1]int
	c.minLen, c.maxLen = MaxCodeLen, 0
	for _, l := range c.lens {
		perLen[l]++
		c.minLen = min(c.minLen, l)
		c.maxLen = max(c.maxLen, l)
	}
	code, rank := uint64(0), 0
	for l := uint8(1); l <= c.maxLen; l++ {
		c.firstCode[l] = code
		c.firstIndex[l] = rank
		code = (code + uint64(perLen[l])) << 1
		rank += perLen[l]
	}
	c.firstIndex[c.maxLen+1] = rank
	c.symByOrder = make([]uint32, len(c.syms))
	c.codes = make([]uint64, len(c.syms))
	next := c.firstIndex
	for i, sym := range c.syms {
		l := c.lens[i]
		r := next[l]
		next[l]++
		//lint:allow intnarrow sym < alphabet <= 1<<24 (ParseTable/Build bound)
		c.symByOrder[r] = uint32(sym)
		c.codes[i] = c.firstCode[l] + uint64(r-c.firstIndex[l])
	}
}

// buildLUT fills the fast-path table for the codes of up to lutBits bits.
func (c *Codec) buildLUT() {
	c.lutBits = uint(min(c.maxLen, lutMaxBits))
	c.lut = make([]uint32, 1<<c.lutBits)
	for l := c.minLen; uint(l) <= c.lutBits; l++ {
		span := uint64(1) << (c.lutBits - uint(l))
		for r := c.firstIndex[l]; r < c.firstIndex[l+1]; r++ {
			entry := c.symByOrder[r]<<6 | (uint32(l) + 1)
			base := (c.firstCode[l] + uint64(r-c.firstIndex[l])) * span
			for off := uint64(0); off < span; off++ {
				c.lut[base+off] = entry
			}
		}
	}
}

// index returns the position of symbol among the present symbols.
func (c *Codec) index(symbol int) (int, bool) {
	return slices.BinarySearch(c.syms, symbol)
}

// Encode appends the code for symbol to w.
func (c *Codec) Encode(w *bitio.Writer, symbol int) error {
	i, ok := c.index(symbol)
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadSymbol, symbol)
	}
	w.WriteBits(c.codes[i], uint(c.lens[i]))
	return nil
}

// Decode reads one symbol from r using the canonical-code tables: at each
// candidate length l, `code` is a valid code iff it falls in
// [firstCode[l], firstCode[l]+numCodes(l)).
func (c *Codec) Decode(r *bitio.Reader) (int, error) {
	// Fast path: one table lookup resolves any code ≤ lutBits long.
	if peek, got := r.PeekBits(c.lutBits); got == c.lutBits {
		if e := c.lut[peek&(1<<c.lutBits-1)]; e != 0 {
			e--
			r.Skip(uint(e & 63))
			return int(e >> 6), nil
		}
	} else if got > 0 {
		// Near EOF: the remaining bits may still hold a short code.
		if e := c.lut[(peek<<(c.lutBits-got))&(1<<c.lutBits-1)]; e != 0 {
			e--
			if l := uint(e & 63); l <= got {
				r.Skip(l)
				return int(e >> 6), nil
			}
		}
	}
	code, err := r.ReadBits(uint(c.minLen))
	if err != nil {
		return 0, err
	}
	l := c.minLen
	for {
		count := c.firstIndex[l+1] - c.firstIndex[l]
		if count > 0 && code >= c.firstCode[l] && code-c.firstCode[l] < uint64(count) {
			//lint:allow intnarrow guarded: code-firstCode[l] < count <= alphabet <= 1<<24
			return int(c.symByOrder[c.firstIndex[l]+int(code-c.firstCode[l])]), nil
		}
		if l >= c.maxLen {
			return 0, ErrInvalidTable
		}
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(b)
		l++
	}
}

// Length returns the code length for symbol (0 if absent).
func (c *Codec) Length(symbol int) int {
	if i, ok := c.index(symbol); ok {
		return int(c.lens[i])
	}
	return 0
}

// Alphabet returns the alphabet size the codec was built for.
func (c *Codec) Alphabet() int { return c.alphabet }

// AppendTable serializes the code book to dst. The format is:
// uvarint(alphabet), uvarint(#present), then for each present symbol in
// increasing order uvarint(delta from previous symbol + 1) and 6 bits of
// length packed two-per-... (kept simple: one byte per length).
func (c *Codec) AppendTable(dst []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(c.alphabet))
	dst = bitio.AppendUvarint(dst, uint64(len(c.syms)))
	prev := -1
	for i, sym := range c.syms {
		dst = bitio.AppendUvarint(dst, uint64(sym-prev))
		dst = append(dst, c.lens[i])
		prev = sym
	}
	return dst
}

// ParseTable reconstructs a Codec from data produced by AppendTable,
// returning the codec and the number of bytes consumed.
func ParseTable(data []byte) (*Codec, int, error) {
	alpha, n := bitio.Uvarint(data)
	if n == 0 || alpha == 0 || alpha > 1<<24 {
		return nil, 0, ErrInvalidTable
	}
	off := n
	cnt, n := bitio.Uvarint(data[off:])
	// Each (delta, length) pair takes at least two bytes, so the pair
	// count is checked against the bytes left before anything is sized
	// by it.
	if n == 0 || cnt == 0 || cnt > alpha || cnt > uint64(len(data)-off-n)/2 {
		return nil, 0, ErrInvalidTable
	}
	off += n
	c := &Codec{
		//lint:allow intnarrow guarded above: alpha <= 1<<24
		alphabet: int(alpha),
		syms:     make([]int, cnt),
		lens:     make([]uint8, cnt),
	}
	// Kraft sum in units of 2^-MaxCodeLen. Each term is at most 2^57 and
	// the sum is checked after every term, so it cannot wrap.
	var kraft uint64
	prev := -1
	for i := range c.syms {
		d, n := bitio.Uvarint(data[off:])
		if n == 0 || d == 0 {
			return nil, 0, ErrInvalidTable
		}
		off += n
		if d > alpha {
			// A delta beyond the alphabet size cannot be valid, and an
			// unchecked int(d) of a near-2^64 delta would wrap negative.
			return nil, 0, ErrInvalidTable
		}
		//lint:allow intnarrow guarded above: d <= alpha <= 1<<24
		sym := prev + int(d)
		if sym >= c.alphabet {
			return nil, 0, ErrInvalidTable
		}
		if off >= len(data) {
			return nil, 0, ErrInvalidTable
		}
		l := data[off]
		off++
		if l == 0 || l > MaxCodeLen {
			return nil, 0, ErrInvalidTable
		}
		// Validate the Kraft inequality to reject corrupt tables that
		// would make Decode loop or misbehave.
		if kraft += uint64(1) << (MaxCodeLen - l); kraft > 1<<MaxCodeLen {
			return nil, 0, ErrInvalidTable
		}
		c.syms[i], c.lens[i] = sym, l
		prev = sym
	}
	c.assign()
	c.buildLUT()
	return c, off, nil
}

// symIndex pages hold 256 symbols each.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

var zeroPage [pageSize]int

// symIndex maps the symbols of one stream to per-symbol counters without
// an alphabet-sized table: a directory with one entry per 256-symbol page
// of the alphabet, and 256 counters for each page a symbol falls in. SZ
// codes sit in two clusters, the unpredictable code 0 and a band around
// the quantization radius, so a chunk touches two or three pages of a
// 65,537-symbol alphabet where a min..max span would cover half of it.
type symIndex struct {
	dir  []int // page -> 1 + offset of its counters in slot; 0 = no page
	slot []int
}

// at returns symbol s's counter, adding its page on first use.
func (x *symIndex) at(s int) *int {
	p := s >> pageBits
	if x.dir[p] == 0 {
		x.dir[p] = len(x.slot) + 1
		x.slot = append(x.slot, zeroPage[:]...)
	}
	return &x.slot[x.dir[p]-1+s&(pageSize-1)]
}

// EncodeAll is a convenience that Huffman-encodes all symbols into a fresh
// writer and returns (table || bit padding-aligned payload) with a uvarint
// payload-bit-count between them.
func EncodeAll(symbols []int, alphabet int) ([]byte, error) {
	x := symIndex{dir: make([]int, (max(alphabet, 0)+pageSize-1)>>pageBits)}
	k := 0
	for _, s := range symbols {
		if s < 0 || s >= alphabet {
			return nil, fmt.Errorf("huffman: symbol %d out of range %d", s, alphabet)
		}
		f := x.at(s)
		if *f == 0 {
			k++
		}
		*f++
	}
	// Collect the present symbols in ascending order with their counts,
	// and turn each counter into the symbol's position among them.
	syms := make([]int, 0, k)
	freqs := make([]uint64, 0, k)
	for p, base := range x.dir {
		if base == 0 {
			continue
		}
		page := x.slot[base-1 : base-1+pageSize]
		for j, f := range page {
			if f > 0 {
				page[j] = len(syms)
				syms = append(syms, p<<pageBits+j)
				freqs = append(freqs, uint64(f))
			}
		}
	}
	c, err := build(alphabet, syms, freqs)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(symbols) / 2)
	for _, s := range symbols {
		i := *x.at(s)
		w.WriteBits(c.codes[i], uint(c.lens[i]))
	}
	payload := w.Bytes()
	// Capacity for the table header and the count, one (delta, length)
	// pair of up to 6 bytes per present symbol, and the payload.
	out := c.AppendTable(make([]byte, 0, 3*binary.MaxVarintLen64+6*len(syms)+len(payload)))
	out = bitio.AppendUvarint(out, uint64(len(symbols)))
	return append(out, payload...), nil
}

// DecodeAll inverts EncodeAll, returning the symbols and bytes consumed.
func DecodeAll(data []byte) ([]int, int, error) {
	c, off, err := ParseTable(data)
	if err != nil {
		return nil, 0, err
	}
	n, k := bitio.Uvarint(data[off:])
	if k == 0 || n > uint64(len(data)-off-k)*8 {
		// Every symbol consumes at least one payload bit, so a count
		// beyond the remaining bit budget is corrupt — and rejecting it
		// here also stops attacker-chosen allocation sizes.
		return nil, 0, ErrInvalidTable
	}
	off += k
	r := bitio.NewReader(data[off:])
	out := make([]int, n)
	for i := range out {
		s, err := c.Decode(r)
		if err != nil {
			return nil, 0, err
		}
		out[i] = s
	}
	//lint:allow intnarrow BitsRead <= 8*len(data), fits int
	off += int((r.BitsRead() + 7) / 8)
	return out, off, nil
}
