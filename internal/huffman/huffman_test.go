package huffman

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/testutil"
)

func roundTrip(t *testing.T, symbols []int, alphabet int) {
	t.Helper()
	buf, err := EncodeAll(symbols, alphabet)
	if err != nil {
		t.Fatalf("EncodeAll: %v", err)
	}
	got, n, err := DecodeAll(buf)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != len(symbols) {
		t.Fatalf("len = %d, want %d", len(got), len(symbols))
	}
	for i := range got {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d = %d, want %d", i, got[i], symbols[i])
		}
	}
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, []int{0, 1, 2, 1, 0, 1, 1, 1, 3}, 4)
}

func TestRoundTripSingleSymbol(t *testing.T) {
	syms := make([]int, 1000)
	for i := range syms {
		syms[i] = 7
	}
	roundTrip(t, syms, 16)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	syms := make([]int, 100)
	for i := range syms {
		syms[i] = i % 2
	}
	roundTrip(t, syms, 2)
}

func TestRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 50000)
	for i := range syms {
		// Geometric-ish distribution centered at 32768, like SZ quant codes.
		v := 32768 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		if v > 65536 {
			v = 65536
		}
		syms[i] = v
	}
	roundTrip(t, syms, 65537)
}

func TestRoundTripUniformLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	syms := make([]int, 20000)
	for i := range syms {
		syms[i] = rng.Intn(1024)
	}
	roundTrip(t, syms, 1024)
}

func TestCompressionBeatsRaw(t *testing.T) {
	// Highly skewed stream must compress well below 8 bits/symbol.
	rng := rand.New(rand.NewSource(3))
	syms := make([]int, 100000)
	for i := range syms {
		if rng.Float64() < 0.95 {
			syms[i] = 0
		} else {
			syms[i] = 1 + rng.Intn(255)
		}
	}
	buf, err := EncodeAll(syms, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > len(syms)/2 {
		t.Fatalf("poor compression: %d bytes for %d symbols", len(buf), len(syms))
	}
}

func TestEncodeAbsentSymbol(t *testing.T) {
	c, err := Build([]uint64{5, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(0)
	if err := c.Encode(w, 1); err == nil {
		t.Fatal("expected error encoding zero-frequency symbol")
	}
	if err := c.Encode(w, 99); err == nil {
		t.Fatal("expected error encoding out-of-range symbol")
	}
}

func TestEmptyFrequencies(t *testing.T) {
	if _, err := Build([]uint64{0, 0, 0}); err == nil {
		t.Fatal("expected error for empty frequency table")
	}
}

func TestEncodeAllRejectsOutOfRange(t *testing.T) {
	if _, err := EncodeAll([]int{0, 5}, 4); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := EncodeAll([]int{-1}, 4); err == nil {
		t.Fatal("expected range error for negative symbol")
	}
}

func TestParseTableCorrupt(t *testing.T) {
	syms := []int{0, 1, 2, 3, 2, 1}
	buf, err := EncodeAll(syms, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix must error, never panic.
	for i := 0; i < len(buf)-1; i++ {
		if _, _, err := DecodeAll(buf[:i]); err == nil {
			// Some truncations may still decode fewer bytes validly only if
			// the full payload happens to be self-contained; the table or
			// count parse must fail for very short prefixes.
			if i < 4 {
				t.Fatalf("prefix %d decoded without error", i)
			}
		}
	}
	// Bit flips in the table region must not panic.
	for i := 0; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xff
		_, _, _ = DecodeAll(mut)
	}
}

func TestCodeLengthsAreKraftFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	freqs := make([]uint64, 300)
	for i := range freqs {
		freqs[i] = uint64(rng.Intn(1000))
	}
	freqs[0] = 1 << 40 // extreme skew
	c, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var kraft float64
	for s := 0; s < c.Alphabet(); s++ {
		if l := c.Length(s); l > 0 {
			kraft += 1 / float64(uint64(1)<<l)
			if l > MaxCodeLen {
				t.Fatalf("code length %d exceeds max", l)
			}
		}
	}
	if kraft > 1.0000001 {
		t.Fatalf("Kraft sum %v > 1", kraft)
	}
}

func TestLimitDepths(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; verify repair keeps codes
	// decodable.
	n := 80
	freqs := make([]uint64, n)
	a, b := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		freqs[i] = a
		a, b = b, a+b
		if a > 1<<55 {
			a = 1 << 55
		}
		if b > 1<<55 {
			b = 1 << 55
		}
	}
	syms := make([]int, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range syms {
		syms[i] = rng.Intn(n)
	}
	roundTrip(t, syms, n)
}

// Property: random symbol streams round-trip for arbitrary alphabets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, alphaSel uint16, length uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := int(alphaSel%2000) + 1
		n := int(length%5000) + 1
		syms := make([]int, n)
		for i := range syms {
			syms[i] = rng.Intn(alphabet)
		}
		buf, err := EncodeAll(syms, alphabet)
		if err != nil {
			return false
		}
		got, _, err := DecodeAll(buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// szFreqs returns an SZ-shaped frequency table over the 65,537-symbol
// quantization alphabet: a band around the radius 32,768 plus some
// unpredictable (code 0) points.
func szFreqs(seed int64, n int) []uint64 {
	freqs := make([]uint64, 65537)
	for _, s := range szCodes(seed, n) {
		freqs[s]++
	}
	return freqs
}

// szCodes returns n SZ-shaped quantization codes: about 1% unpredictable
// code 0, the rest normally spread around the radius 32,768.
func szCodes(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	codes := make([]int, n)
	for i := range codes {
		if rng.Intn(100) == 0 {
			continue
		}
		codes[i] = 32768 + int(rng.NormFloat64()*20)
	}
	return codes
}

func TestTableRoundTripPreservesLengths(t *testing.T) {
	for _, freqs := range [][]uint64{
		{10, 0, 5, 5, 0, 0, 1, 100},
		szFreqs(1, 3600),
	} {
		c, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		table := c.AppendTable(nil)
		c2, n, err := ParseTable(table)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(table) {
			t.Fatalf("consumed %d of %d", n, len(table))
		}
		if again := c2.AppendTable(nil); !bytes.Equal(again, table) {
			t.Fatalf("parsed codec re-emits a different table:\n got %x\nwant %x", again, table)
		}
		if c2.Alphabet() != len(freqs) {
			t.Fatalf("alphabet %d, want %d", c2.Alphabet(), len(freqs))
		}
		for s := -1; s <= len(freqs); s++ {
			if c.Length(s) != c2.Length(s) {
				t.Fatalf("symbol %d length mismatch: %d vs %d", s, c.Length(s), c2.Length(s))
			}
			if (s < 0 || s >= len(freqs) || freqs[s] == 0) != (c2.Length(s) == 0) {
				t.Fatalf("symbol %d: length %d disagrees with presence", s, c2.Length(s))
			}
		}
	}
}

// allocBytes returns the bytes f allocates per call, averaged over runs.
func allocBytes(runs int, f func()) uint64 {
	return testutil.AllocBytes(func() {
		for i := 0; i < runs; i++ {
			f()
		}
	}) / uint64(runs)
}

// TestParseTableSparseAllocs: parsing cost follows the symbols present,
// not the alphabet. A dense parser allocates ~590 KB for this table.
func TestParseTableSparseAllocs(t *testing.T) {
	freqs := make([]uint64, 65537)
	freqs[0], freqs[32767], freqs[32768] = 1, 5, 90
	c, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	table := c.AppendTable(nil)
	got := allocBytes(100, func() {
		if _, _, err := ParseTable(table); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 32<<10 {
		t.Fatalf("ParseTable of a 3-symbol table over 65,537 symbols allocates %d B, want < 32 KiB", got)
	}
}

// TestEncodeAllSparseAllocs: encoding one SZ chunk's codes allocates in
// proportion to the chunk, not to the 65,537-symbol alphabet.
func TestEncodeAllSparseAllocs(t *testing.T) {
	codes := szCodes(2, 3600)
	if !slices.Contains(codes, 0) {
		t.Fatal("test codes lack unpredictable code 0")
	}
	got := allocBytes(20, func() {
		if _, err := EncodeAll(codes, 65537); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 128<<10 {
		t.Fatalf("EncodeAll of 3,600 codes allocates %d B, want < 128 KiB", got)
	}
}

// TestEncodeAllMatchesReference pins the stream bytes: the sparse encoder
// emits exactly what the dense reference encoder emits.
func TestEncodeAllMatchesReference(t *testing.T) {
	cases := []struct {
		syms     []int
		alphabet int
	}{
		{[]int{0, 1, 2, 1, 0, 1, 1, 1, 3}, 4},
		{[]int{7, 7, 7}, 16},
		{szCodes(3, 3600), 65537},
		{szCodes(4, 50000), 65537},
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		alphabet := rng.Intn(3000) + 1
		syms := make([]int, rng.Intn(4000)+1)
		for j := range syms {
			// Skewed, with many equal counts to exercise tie-breaking.
			syms[j] = rng.Intn(1 + rng.Intn(alphabet))
		}
		cases = append(cases, struct {
			syms     []int
			alphabet int
		}{syms, alphabet})
	}
	for i, c := range cases {
		got, err := EncodeAll(c.syms, c.alphabet)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refEncodeAll(c.syms, c.alphabet)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: EncodeAll bytes differ from the reference encoder", i)
		}
	}
}

// kraftTooLong returns a table whose 128 length-1 codes sum the reference
// parser's uint64 Kraft total to exactly 2^64, which wraps to 0.
func kraftTooLong() []byte {
	table := bitio.AppendUvarint(nil, 256)
	table = bitio.AppendUvarint(table, 128)
	for i := 0; i < 128; i++ {
		table = append(table, 1, 1)
	}
	table = bitio.AppendUvarint(table, 1)
	return append(table, 0)
}

func TestParseTableRejectsKraftOverflow(t *testing.T) {
	if _, _, err := DecodeAll(kraftTooLong()); !errors.Is(err, ErrInvalidTable) {
		t.Fatalf("err = %v, want ErrInvalidTable", err)
	}
}

// tableKraftExceeds reports whether data starts with a table whose Kraft
// sum exceeds 1, summed without wrapping. Only called on tables the
// reference parser accepted, so the pairs are well formed.
func tableKraftExceeds(data []byte) bool {
	_, n := bitio.Uvarint(data)
	off := n
	cnt, n := bitio.Uvarint(data[off:])
	off += n
	var kraft uint64
	for i := uint64(0); i < cnt; i++ {
		_, n := bitio.Uvarint(data[off:])
		off += n
		if kraft += uint64(1) << (MaxCodeLen - data[off]); kraft > 1<<MaxCodeLen {
			return true
		}
		off++
	}
	return false
}

// refDecode runs the reference decoder, turning a panic into an error.
func refDecode(data []byte) (syms []int, n int, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err, panicked = fmt.Errorf("reference panic: %v", r), true
		}
	}()
	syms, n, err = refDecodeAll(data)
	return syms, n, err, false
}

// FuzzHuffmanDecodeAll checks the sparse DecodeAll against the dense
// reference parser on arbitrary bytes, and EncodeAll -> DecodeAll round
// trips (and matches the reference encoder) for symbols derived from
// the same bytes.
func FuzzHuffmanDecodeAll(f *testing.F) {
	small, err := EncodeAll([]int{0, 1, 2, 3, 2, 1}, 4)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < len(small); i++ {
		f.Add(small[:i])
		mut := append([]byte(nil), small...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Add(small)
	sz, err := EncodeAll(szCodes(5, 600), 65537)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sz)
	f.Add(kraftTooLong())
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantN, wantErr, panicked := refDecode(data)
		got, gotN, gotErr := DecodeAll(data)
		switch {
		case panicked || wantErr == nil && tableKraftExceeds(data):
			// The reference sums Kraft in a wrapping uint64, so it
			// accepts or panics on some infeasible tables.
			if gotErr == nil {
				t.Fatalf("accepted a table the reference mishandles (%v)", wantErr)
			}
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("accept/reject differs: reference %v, sparse %v", wantErr, gotErr)
		case gotErr == nil && (gotN != wantN || !slices.Equal(got, want)):
			t.Fatalf("decode differs: consumed %d vs %d, %d vs %d symbols", gotN, wantN, len(got), len(want))
		}

		// Round trip SZ-shaped symbols derived from the input bytes.
		syms := make([]int, len(data))
		for i, b := range data {
			if b != 0 {
				syms[i] = 32768 + int(int8(b))
			}
		}
		if len(syms) == 0 {
			return
		}
		enc, err := EncodeAll(syms, 65537)
		if err != nil {
			t.Fatal(err)
		}
		if ref, err := refEncodeAll(syms, 65537); err != nil || !bytes.Equal(enc, ref) {
			t.Fatalf("EncodeAll differs from the reference encoder (%v)", err)
		}
		dec, n, err := DecodeAll(enc)
		if err != nil || n != len(enc) || !slices.Equal(dec, syms) {
			t.Fatalf("round trip: err %v, consumed %d of %d", err, n, len(enc))
		}
	})
}

func BenchmarkEncode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	syms := make([]int, 1<<16)
	for i := range syms {
		syms[i] = 32768 + int(rng.NormFloat64()*2)
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeAll(syms, 65537); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	syms := make([]int, 1<<16)
	for i := range syms {
		syms[i] = 32768 + int(rng.NormFloat64()*2)
	}
	buf, err := EncodeAll(syms, 65537)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAll(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLUTDecodeMatchesSlowPath(t *testing.T) {
	// Random skewed codecs: the fast table path must agree with canonical
	// decoding for every symbol, including codes longer than the table.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		alphabet := rng.Intn(3000) + 2
		freqs := make([]uint64, alphabet)
		for i := range freqs {
			if rng.Float64() < 0.3 {
				freqs[i] = uint64(rng.Intn(1_000_000)) + 1
			}
		}
		freqs[rng.Intn(alphabet)] = 1 << 50 // force long codes for the rare ones
		c, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		var syms []int
		for s := 0; s < alphabet; s++ {
			if c.Length(s) > 0 {
				syms = append(syms, s, s, s)
			}
		}
		w := bitio.NewWriter(0)
		for _, s := range syms {
			if err := c.Encode(w, s); err != nil {
				t.Fatal(err)
			}
		}
		r := bitio.NewReader(w.Bytes())
		for i, want := range syms {
			got, err := c.Decode(r)
			if err != nil {
				t.Fatalf("trial %d symbol %d: %v", trial, i, err)
			}
			if got != want {
				t.Fatalf("trial %d symbol %d: %d != %d", trial, i, got, want)
			}
		}
	}
}

// --- Dense reference coder ----------------------------------------------
//
// The coder as it was before its tables were sized to the symbols present:
// every table spans the whole alphabet. Kept verbatim as the oracle for
// TestEncodeAllMatchesReference and FuzzHuffmanDecodeAll.

// refCodec holds a canonical Huffman code book for symbols in [0, alphabet).
type refCodec struct {
	alphabet int
	lengths  []uint8  // code length per symbol; 0 = absent
	codes    []uint64 // canonical code per symbol (valid when lengths>0)

	// Decoding acceleration: first code value and first index per length.
	firstCode  [MaxCodeLen + 2]uint64
	firstIndex [MaxCodeLen + 2]int
	symByOrder []uint32 // symbols sorted by (length, symbol)
	maxLen     uint8
	minLen     uint8
	count      int // number of present symbols

	// lut accelerates decoding of codes up to lutBits long: indexed by the
	// next lutBits of the stream, each entry holds symbol<<6 | length
	// (plus 1 so 0 means "no short code here; take the slow path").
	lut     []uint32
	lutBits uint
}

type refNode struct {
	freq   uint64
	symbol int // -1 for internal
	left   *refNode
	right  *refNode
	seq    int // tie-break for determinism
}

type refHeap []*refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refNode)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refBuild constructs a canonical code book from the frequency table freqs,
// indexed by symbol. Symbols with zero frequency receive no code.
func refBuild(freqs []uint64) (*refCodec, error) {
	c := &refCodec{
		alphabet: len(freqs),
		lengths:  make([]uint8, len(freqs)),
		codes:    make([]uint64, len(freqs)),
	}
	h := make(refHeap, 0, len(freqs))
	seq := 0
	for sym, f := range freqs {
		if f > 0 {
			h = append(h, &refNode{freq: f, symbol: sym, seq: seq})
			seq++
			c.count++
		}
	}
	if c.count == 0 {
		return nil, errors.New("huffman: empty frequency table")
	}
	if c.count == 1 {
		// Single symbol: give it a 1-bit code so the stream is decodable.
		c.lengths[h[0].symbol] = 1
	} else {
		heap.Init(&h)
		for h.Len() > 1 {
			a := heap.Pop(&h).(*refNode)
			b := heap.Pop(&h).(*refNode)
			heap.Push(&h, &refNode{freq: a.freq + b.freq, symbol: -1, left: a, right: b, seq: seq})
			seq++
		}
		root := h[0]
		refAssignDepths(root, 0, c.lengths)
		limitDepths(c.lengths, MaxCodeLen)
	}
	c.finish()
	return c, nil
}

func refAssignDepths(n *refNode, depth uint8, lengths []uint8) {
	if n.symbol >= 0 {
		lengths[n.symbol] = depth
		return
	}
	refAssignDepths(n.left, depth+1, lengths)
	refAssignDepths(n.right, depth+1, lengths)
}

// finish derives canonical codes and decode tables from c.lengths.
func (c *refCodec) finish() {
	type ls struct {
		sym int
		l   uint8
	}
	present := make([]ls, 0, c.count)
	c.count = 0
	for sym, l := range c.lengths {
		if l > 0 {
			present = append(present, ls{sym, l})
			c.count++
		}
	}
	sort.Slice(present, func(i, j int) bool {
		if present[i].l != present[j].l {
			return present[i].l < present[j].l
		}
		return present[i].sym < present[j].sym
	})
	c.symByOrder = make([]uint32, len(present))
	if len(present) == 0 {
		return
	}
	c.minLen = present[0].l
	c.maxLen = present[len(present)-1].l
	code := uint64(0)
	prevLen := present[0].l
	for l := uint8(0); l <= prevLen; l++ {
		c.firstIndex[l] = 0
	}
	c.firstCode[prevLen] = 0
	for i, p := range present {
		if p.l != prevLen {
			for l := prevLen + 1; l <= p.l; l++ {
				code <<= 1
				c.firstCode[l] = code
				c.firstIndex[l] = i
			}
			prevLen = p.l
		}
		c.codes[p.sym] = code
		//lint:allow intnarrow sym < alphabet <= 1<<24 (ParseTable/Build bound)
		c.symByOrder[i] = uint32(p.sym)
		code++
	}

	// Fast-path table for short codes.
	c.lutBits = uint(c.maxLen)
	if c.lutBits > lutMaxBits {
		c.lutBits = lutMaxBits
	}
	c.lut = make([]uint32, 1<<c.lutBits)
	for _, p := range present {
		if uint(p.l) > c.lutBits {
			break // present is sorted by length
		}
		//lint:allow intnarrow sym < alphabet <= 1<<24 (ParseTable/Build bound)
		entry := uint32(p.sym)<<6 | (uint32(p.l) + 1)
		base := c.codes[p.sym] << (c.lutBits - uint(p.l))
		span := uint64(1) << (c.lutBits - uint(p.l))
		for off := uint64(0); off < span; off++ {
			c.lut[base+off] = entry
		}
	}
}

// Encode appends the code for symbol to w.
func (c *refCodec) Encode(w *bitio.Writer, symbol int) error {
	if symbol < 0 || symbol >= c.alphabet || c.lengths[symbol] == 0 {
		return fmt.Errorf("%w: %d", ErrBadSymbol, symbol)
	}
	w.WriteBits(c.codes[symbol], uint(c.lengths[symbol]))
	return nil
}

// Decode reads one symbol from r using the canonical-code tables: at each
// candidate length l, `code` is a valid code iff it falls in
// [firstCode[l], firstCode[l]+numCodes(l)).
func (c *refCodec) Decode(r *bitio.Reader) (int, error) {
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
		var count int
		if l < c.maxLen {
			count = c.firstIndex[l+1] - c.firstIndex[l]
		} else {
			count = len(c.symByOrder) - c.firstIndex[l]
		}
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

// AppendTable serializes the code book to dst. The format is:
// uvarint(alphabet), uvarint(#present), then for each present symbol in
// increasing order uvarint(delta from previous symbol + 1) and 6 bits of
// length packed two-per-... (kept simple: one byte per length).
func (c *refCodec) AppendTable(dst []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(c.alphabet))
	dst = bitio.AppendUvarint(dst, uint64(c.count))
	prev := -1
	for sym, l := range c.lengths {
		if l == 0 {
			continue
		}
		dst = bitio.AppendUvarint(dst, uint64(sym-prev))
		dst = append(dst, byte(l))
		prev = sym
	}
	return dst
}

// refParseTable reconstructs a Codec from data produced by AppendTable,
// returning the codec and the number of bytes consumed.
func refParseTable(data []byte) (*refCodec, int, error) {
	alpha, n := bitio.Uvarint(data)
	if n == 0 || alpha == 0 || alpha > 1<<24 {
		return nil, 0, ErrInvalidTable
	}
	off := n
	cnt, n := bitio.Uvarint(data[off:])
	if n == 0 || cnt == 0 || cnt > alpha {
		return nil, 0, ErrInvalidTable
	}
	off += n
	c := &refCodec{
		//lint:allow intnarrow guarded above: alpha <= 1<<24
		alphabet: int(alpha),
		lengths:  make([]uint8, alpha),
		codes:    make([]uint64, alpha),
	}
	prev := -1
	for i := uint64(0); i < cnt; i++ {
		d, n := bitio.Uvarint(data[off:])
		if n == 0 || d == 0 {
			return nil, 0, ErrInvalidTable
		}
		off += n
		if d > alpha {
			// A delta beyond the alphabet size cannot be valid, and an
			// unchecked int(d) of a near-2^64 delta would wrap negative
			// and index lengths[] out of range below.
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
		c.lengths[sym] = l
		prev = sym
	}
	// Validate Kraft inequality to reject corrupt tables that would make
	// Decode loop or misbehave.
	var kraft uint64
	for _, l := range c.lengths {
		if l > 0 {
			kraft += uint64(1) << (MaxCodeLen - l)
		}
	}
	if kraft > 1<<MaxCodeLen {
		return nil, 0, ErrInvalidTable
	}
	c.finish()
	return c, off, nil
}

// refEncodeAll is a convenience that Huffman-encodes all symbols into a fresh
// writer and returns (table || bit padding-aligned payload) with a uvarint
// payload-bit-count between them.
func refEncodeAll(symbols []int, alphabet int) ([]byte, error) {
	freqs := make([]uint64, alphabet)
	for _, s := range symbols {
		if s < 0 || s >= alphabet {
			return nil, fmt.Errorf("huffman: symbol %d out of range %d", s, alphabet)
		}
		freqs[s]++
	}
	c, err := refBuild(freqs)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(symbols) / 2)
	for _, s := range symbols {
		if err := c.Encode(w, s); err != nil {
			return nil, err
		}
	}
	out := c.AppendTable(nil)
	out = bitio.AppendUvarint(out, uint64(len(symbols)))
	out = append(out, w.Bytes()...)
	return out, nil
}

// refDecodeAll inverts EncodeAll, returning the symbols and bytes consumed.
func refDecodeAll(data []byte) ([]int, int, error) {
	c, off, err := refParseTable(data)
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
