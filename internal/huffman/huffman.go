// Package huffman implements canonical, length-limited Huffman coding over
// arbitrary alphabets. It is the entropy stage of the bzip2-class and
// zstd-class codecs and of LC's terminal HUF component.
package huffman

import (
	"fmt"
	"slices"
	"sort"

	"positbench/internal/bitio"
	"positbench/internal/compress"
)

// MaxBits is the default code-length limit.
const MaxBits = 15

// BuildLengths computes near-optimal code lengths (<= maxBits) for the given
// symbol frequencies. Symbols with zero frequency get length 0 (no code).
// If only one symbol has nonzero frequency it is assigned length 1.
func BuildLengths(freqs []int, maxBits int) ([]uint8, error) {
	var b Builder
	return b.Lengths(freqs, maxBits)
}

// Builder computes code lengths like BuildLengths, reusing its working
// memory from call to call. The zero value is ready to use. A Builder is
// not safe for concurrent use.
type Builder struct {
	work    []int // frequencies, halved on each limit retry
	lengths []uint8
	leaves  []int // symbols with nonzero frequency, then sorted by (freq, sym)
	spare   []int // the radix sort's other buffer
	tree    []int // node weights (then depths) and parents, one half each
}

// Lengths is BuildLengths on b's memory. The returned slice belongs to b
// and is overwritten by the next call.
func (b *Builder) Lengths(freqs []int, maxBits int) ([]uint8, error) {
	if maxBits < 1 || maxBits > 30 {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	n := len(freqs)
	if n == 0 {
		return nil, fmt.Errorf("huffman: empty alphabet")
	}
	if n > 1<<maxBits {
		return nil, fmt.Errorf("huffman: alphabet size %d exceeds 2^%d", n, maxBits)
	}
	b.work = append(b.work[:0], freqs...)
	for {
		lengths, maxLen := b.buildOnce(b.work)
		if maxLen <= maxBits {
			return lengths, nil
		}
		// Flatten the distribution and retry; this converges because all
		// frequencies eventually reach 1, which yields a balanced tree of
		// depth ceil(log2(n)) <= maxBits.
		for i, f := range b.work {
			if f > 0 {
				b.work[i] = (f + 1) / 2
			}
		}
	}
}

// buildOnce computes unlimited Huffman code lengths with the two-queue
// method: leaves sorted once by (freq, sym), internal nodes appended in
// creation order. Merged weights never decrease, so both queues stay
// sorted under the total order (freq, order), where a leaf's order is its
// symbol and the k-th internal node's is len(freqs)+k. Popping the smaller
// head therefore replays exactly the merge sequence of a binary heap keyed
// on that order, and yields the same lengths.
func (b *Builder) buildOnce(freqs []int) ([]uint8, int) {
	n := len(freqs)
	b.lengths = slices.Grow(b.lengths[:0], n)[:n]
	lengths := b.lengths
	clear(lengths)
	leaves := slices.Grow(b.leaves[:0], n)
	maxFreq := 0
	for sym, f := range freqs {
		if f > 0 {
			leaves = append(leaves, sym)
			maxFreq = max(maxFreq, f)
		}
	}
	b.leaves = leaves
	m := len(leaves)
	switch m {
	case 0:
		return lengths, 0
	case 1:
		lengths[leaves[0]] = 1
		return lengths, 1
	}
	leaves = b.sortLeaves(freqs, maxFreq)
	// Nodes 0..m-1 are the sorted leaves, m..2m-2 the internal nodes in
	// creation order; the root is the last one created.
	b.tree = slices.Grow(b.tree[:0], 2*(2*m-1))[:2*(2*m-1)]
	weight, parent := b.tree[:2*m-1], b.tree[2*m-1:]
	for i, sym := range leaves {
		weight[i] = freqs[sym]
	}
	leaf, inner := 0, m // queue heads; the internal queue is [inner, next)
	for next := m; next < 2*m-1; next++ {
		var pick [2]int
		for j := range pick {
			// On equal weight the leaf goes first: its order (a symbol) is
			// below every internal node's.
			if leaf < m && (inner == next || weight[leaf] <= weight[inner]) {
				pick[j] = leaf
				leaf++
			} else {
				pick[j] = inner
				inner++
			}
		}
		weight[next] = weight[pick[0]] + weight[pick[1]]
		parent[pick[0]], parent[pick[1]] = next, next
	}
	// A parent is always created after its children, so one reverse sweep
	// assigns every depth. weight is reused as the depth array.
	depth := weight
	depth[2*m-2] = 0
	maxLen := 0
	for i := 2*m - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
		if i < m {
			lengths[leaves[i]] = uint8(depth[i])
			if depth[i] > maxLen {
				maxLen = depth[i]
			}
		}
	}
	return lengths, maxLen
}

// sortLeaves orders b.leaves, which are in symbol order, by (freq, sym):
// a least-significant-byte-first radix sort on the frequency, each pass
// stable, so equal frequencies keep symbol order. A pass that would put
// every leaf in one bucket is skipped.
func (b *Builder) sortLeaves(freqs []int, maxFreq int) []int {
	src := b.leaves
	dst := slices.Grow(b.spare[:0], len(src))[:len(src)]
	for shift := uint(0); maxFreq>>shift > 0; shift += 8 {
		var count [256]int
		for _, sym := range src {
			count[freqs[sym]>>shift&0xff]++
		}
		if count[freqs[src[0]]>>shift&0xff] == len(src) {
			continue
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, sym := range src {
			d := freqs[sym] >> shift & 0xff
			dst[count[d]] = sym
			count[d]++
		}
		src, dst = dst, src
	}
	b.leaves, b.spare = src, dst
	return src
}

// canonicalCodes assigns canonical codes (shorter codes first, ties by
// symbol order) from a length table, reusing dst's memory.
func canonicalCodes(dst []uint32, lengths []uint8) ([]uint32, error) {
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	codes := slices.Grow(dst[:0], len(lengths))[:len(lengths)]
	clear(codes)
	if maxLen == 0 {
		return codes, nil
	}
	var countBuf [256]int
	var nextBuf [257]uint32
	count := countBuf[:maxLen+1]
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	next := nextBuf[:maxLen+2]
	code := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + uint32(count[l-1])) << 1
		next[l] = code
	}
	// Kraft check.
	var kraft uint64
	for _, l := range lengths {
		if l > 0 {
			kraft += 1 << (uint(maxLen) - uint(l))
		}
	}
	if kraft > 1<<uint(maxLen) {
		return nil, compress.Errorf(compress.ErrCorrupt, "huffman: over-subscribed length table")
	}
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = next[l]
		next[l]++
	}
	return codes, nil
}

// Encoder emits canonical Huffman codes for symbols.
type Encoder struct {
	codes   []uint32
	lengths []uint8
}

// NewEncoder builds an encoder from a length table.
func NewEncoder(lengths []uint8) (*Encoder, error) {
	e := new(Encoder)
	if err := e.Reset(lengths); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rebuilds e for a new length table, reusing its code table's
// memory. e keeps a reference to lengths.
func (e *Encoder) Reset(lengths []uint8) error {
	codes, err := canonicalCodes(e.codes, lengths)
	if err != nil {
		return err
	}
	e.codes, e.lengths = codes, lengths
	return nil
}

// Encode appends the code for sym to w.
func (e *Encoder) Encode(w *bitio.Writer, sym int) {
	w.WriteBits(uint64(e.codes[sym]), uint(e.lengths[sym]))
}

// CodeLen returns the code length of sym in bits (0 if sym has no code).
func (e *Encoder) CodeLen(sym int) int { return int(e.lengths[sym]) }

// rootBits is the width of the decoder's one-step lookup table: every code
// of length <= rootBits decodes with a single peek + table index. 2^11
// entries x 4 bytes = 8 KiB per table, built once per NewDecoder; codes
// longer than rootBits (rare by construction: canonical Huffman assigns
// long codes to rare symbols) fall back to the canonical walk.
const rootBits = 11

// Decoder decodes canonical Huffman codes.
type Decoder struct {
	maxLen    uint8
	rootBits  uint     // min(maxLen, rootBits): bits peeked per fast decode
	root      []uint32 // entry = sym<<4 | len; 0 = long code or invalid prefix
	firstCode []uint32 // first canonical code of each length
	firstSym  []int    // index into syms of the first symbol of each length
	counts    []int    // number of codes of each length
	syms      []int    // symbols in canonical order
}

// NewDecoder builds a decoder from a length table.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	if _, err := canonicalCodes(nil, lengths); err != nil {
		return nil, err
	}
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	d := &Decoder{
		maxLen:    maxLen,
		firstCode: make([]uint32, maxLen+1),
		firstSym:  make([]int, maxLen+1),
		counts:    make([]int, maxLen+1),
	}
	type symLen struct {
		sym int
		l   uint8
	}
	var sl []symLen
	for sym, l := range lengths {
		if l > 0 {
			sl = append(sl, symLen{sym, l})
			d.counts[l]++
		}
	}
	sort.Slice(sl, func(i, j int) bool {
		if sl[i].l != sl[j].l {
			return sl[i].l < sl[j].l
		}
		return sl[i].sym < sl[j].sym
	})
	for _, s := range sl {
		d.syms = append(d.syms, s.sym)
	}
	code := uint32(0)
	symIdx := 0
	for l := uint8(1); l <= maxLen; l++ {
		if l > 1 {
			code = (code + uint32(d.counts[l-1])) << 1
		}
		d.firstCode[l] = code
		d.firstSym[l] = symIdx
		symIdx += d.counts[l]
	}
	d.buildRoot(lengths)
	return d, nil
}

// buildRoot fills the one-step lookup table: for each code of length
// l <= d.rootBits, every rootBits-wide bit pattern starting with that code
// maps to (sym, l). Prefixes of longer codes and junk patterns stay 0 and
// take the canonical-walk fallback. Alphabets too large for the packed
// entry layout (never hit by the codecs: symbols must fit 28 bits) simply
// skip the table.
func (d *Decoder) buildRoot(lengths []uint8) {
	if d.maxLen == 0 || len(lengths) > 1<<28 {
		return
	}
	rb := uint(rootBits)
	if uint(d.maxLen) < rb {
		rb = uint(d.maxLen)
	}
	d.rootBits = rb
	d.root = make([]uint32, 1<<rb)
	code := uint32(0)
	symIdx := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		if l > 1 {
			code = (code + uint32(d.counts[l-1])) << 1
		}
		if uint(l) <= rb {
			span := uint(1) << (rb - uint(l)) // table slots per code
			for i := 0; i < d.counts[l]; i++ {
				sym := d.syms[symIdx+i]
				entry := uint32(sym)<<4 | uint32(l)
				base := uint((code + uint32(i))) << (rb - uint(l))
				slots := d.root[base : base+span]
				for j := range slots {
					slots[j] = entry
				}
			}
		}
		symIdx += d.counts[l]
	}
}

// Decode reads one symbol from r. Codes of length <= rootBits resolve with
// one PeekBits and a table index; longer codes (and corrupt prefixes) fall
// back to the canonical walk.
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	if d.root != nil {
		if e := d.root[r.PeekBits(d.rootBits)]; e != 0 {
			// The peek is zero-padded at end of stream, so a matched entry
			// may claim more bits than remain; Consume detects that.
			if err := r.Consume(uint(e & 15)); err != nil {
				return 0, err
			}
			return int(e >> 4), nil
		}
	}
	return d.decodeSlow(r)
}

// DecodeBatch decodes symbols into dst until dst is full or the stop symbol
// is decoded (stop is consumed but not stored). It returns the number of
// symbols stored and whether stop ended the batch. One call replaces a
// per-symbol Decode loop, keeping the root-table lookup and the bit reader
// hot across an entire run of symbols.
func (d *Decoder) DecodeBatch(r *bitio.Reader, dst []uint16, stop int) (int, bool, error) {
	k := 0
	root, rb := d.root, d.rootBits
	// Fast section: decode from the lookahead word in registers, settling
	// consumed bits with one Drop per refill instead of a PeekBits+Consume
	// method-call pair per symbol. With >= 57 bits per refill and codes of
	// at most MaxBits, several symbols decode per iteration. The guard
	// nb >= MaxBits guarantees any root entry's length fits the valid bits,
	// so Drop never overruns; near end of stream (nb < MaxBits) the loop
	// below takes over with its zero-padding-aware Peek/Consume handling.
	if root != nil {
		for k < len(dst) {
			w, nb := r.Lookahead()
			if nb < MaxBits {
				break
			}
			n0 := nb
			long := false
			for nb >= MaxBits && k < len(dst) {
				e := root[w>>(64-rb)]
				if e == 0 {
					long = true
					break
				}
				w <<= e & 15
				nb -= uint(e & 15)
				s := int(e >> 4)
				if s == stop {
					r.Drop(n0 - nb)
					return k, true, nil
				}
				dst[k] = uint16(s)
				k++
			}
			r.Drop(n0 - nb)
			if long {
				s, err := d.decodeSlow(r)
				if err != nil {
					return k, false, err
				}
				if s == stop {
					return k, true, nil
				}
				dst[k] = uint16(s)
				k++
			}
		}
	}
	for k < len(dst) {
		var s int
		if root != nil {
			if e := root[r.PeekBits(rb)]; e != 0 {
				if err := r.Consume(uint(e & 15)); err != nil {
					return k, false, err
				}
				s = int(e >> 4)
			} else {
				var err error
				if s, err = d.decodeSlow(r); err != nil {
					return k, false, err
				}
			}
		} else {
			var err error
			if s, err = d.decodeSlow(r); err != nil {
				return k, false, err
			}
		}
		if s == stop {
			return k, true, nil
		}
		dst[k] = uint16(s)
		k++
	}
	return k, false, nil
}

// decodeSlow is the canonical bit-by-bit walk, used for codes longer than
// rootBits and for invalid input.
func (d *Decoder) decodeSlow(r *bitio.Reader) (int, error) {
	var code uint32
	for l := uint8(1); l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if d.counts[l] > 0 && code < d.firstCode[l]+uint32(d.counts[l]) && code >= d.firstCode[l] {
			return d.syms[d.firstSym[l]+int(code-d.firstCode[l])], nil
		}
	}
	return 0, compress.Errorf(compress.ErrCorrupt, "huffman: invalid code")
}

// WriteLengths serializes a length table compactly: 4 bits per nonzero
// length, with zero runs escaped as 0 followed by an 8-bit (run-1) count.
// Lengths above 15 are not supported by this serialization.
func WriteLengths(w *bitio.Writer, lengths []uint8) error {
	for i := 0; i < len(lengths); {
		l := lengths[i]
		if l > 15 {
			return fmt.Errorf("huffman: length %d exceeds serialization limit", l)
		}
		if l != 0 {
			w.WriteBits(uint64(l), 4)
			i++
			continue
		}
		run := 1
		for i+run < len(lengths) && lengths[i+run] == 0 && run < 256 {
			run++
		}
		w.WriteBits(0, 4)
		w.WriteBits(uint64(run-1), 8)
		i += run
	}
	return nil
}

// LengthsBits returns the number of bits WriteLengths emits for lengths,
// without writing them.
func LengthsBits(lengths []uint8) (int, error) {
	nbits := 0
	for i := 0; i < len(lengths); {
		l := lengths[i]
		if l > 15 {
			return 0, fmt.Errorf("huffman: length %d exceeds serialization limit", l)
		}
		if l != 0 {
			nbits += 4
			i++
			continue
		}
		run := 1
		for i+run < len(lengths) && lengths[i+run] == 0 && run < 256 {
			run++
		}
		nbits += 4 + 8
		i += run
	}
	return nbits, nil
}

// ReadLengths parses a table of the given alphabet size.
func ReadLengths(r *bitio.Reader, n int) ([]uint8, error) {
	lengths := make([]uint8, n)
	for i := 0; i < n; {
		v, err := r.ReadBits(4)
		if err != nil {
			return nil, err
		}
		if v != 0 {
			lengths[i] = uint8(v)
			i++
			continue
		}
		run, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		i += int(run) + 1
		if i > n {
			return nil, compress.Errorf(compress.ErrCorrupt, "huffman: zero run overflows alphabet")
		}
	}
	return lengths, nil
}
