package netbuf

import "encoding/binary"

// Internet checksum (RFC 1071) over buffers and chains, with the incremental
// combination rules NCache relies on: a cached chain's payload checksum is
// computed once (or inherited from the originator's packets) and folded into
// each outgoing packet header instead of being recomputed per transmission.

// Partial is an un-folded ones'-complement sum that can be combined
// incrementally across buffer fragments.
type Partial struct {
	sum uint64
	// odd tracks byte parity so fragments of odd length combine correctly.
	odd bool
}

// AddBytes folds the bytes of p into the running sum.
//
// The bulk of p is summed eight bytes at a time: each big-endian 64-bit
// load contributes its two 32-bit halves to the accumulator. Because
// 2^16 ≡ 1 (mod 0xffff), a 32-bit half w0<<16|w1 is congruent to the word
// sum w0+w1, so the raw sum differs from a 16-bit-at-a-time walk but every
// folded value is identical (RFC 1071 §2(C), deferred carries). Each 8-byte
// group adds less than 2^33, so the accumulator cannot wrap before 16 GiB of
// payload has gone into one Partial.
func (s *Partial) AddBytes(p []byte) {
	if s.odd && len(p) > 0 {
		// The previous fragment ended mid-word: this byte is the low
		// half of the pending 16-bit word.
		s.sum += uint64(p[0])
		p = p[1:]
		s.odd = false
	}
	sum := s.sum
	for len(p) >= 32 {
		w0 := binary.BigEndian.Uint64(p[0:8])
		w1 := binary.BigEndian.Uint64(p[8:16])
		w2 := binary.BigEndian.Uint64(p[16:24])
		w3 := binary.BigEndian.Uint64(p[24:32])
		sum += w0>>32 + w0&0xffffffff + w1>>32 + w1&0xffffffff +
			w2>>32 + w2&0xffffffff + w3>>32 + w3&0xffffffff
		p = p[32:]
	}
	for len(p) >= 8 {
		w := binary.BigEndian.Uint64(p)
		sum += w>>32 + w&0xffffffff
		p = p[8:]
	}
	for len(p) >= 2 {
		sum += uint64(p[0])<<8 | uint64(p[1])
		p = p[2:]
	}
	if len(p) == 1 {
		sum += uint64(p[0]) << 8
		s.odd = true
	}
	s.sum = sum
}

// AddUint16 folds a single big-endian word into the sum. It must only be
// called on an even byte boundary.
func (s *Partial) AddUint16(v uint16) {
	s.sum += uint64(v)
}

// Fold reduces the running sum to a 16-bit ones'-complement checksum
// (not yet inverted).
func (s *Partial) Fold() uint16 {
	v := s.sum
	for v > 0xffff {
		v = (v >> 16) + (v & 0xffff)
	}
	return uint16(v)
}

// Checksum returns the final inverted Internet checksum.
func (s *Partial) Checksum() uint16 { return ^s.Fold() }

// Sum computes the Internet checksum of a flat byte slice.
func Sum(p []byte) uint16 {
	var s Partial
	s.AddBytes(p)
	return s.Checksum()
}

// SumChain computes the Internet checksum across a chain's payload without
// flattening it.
func SumChain(c *Chain) uint16 {
	var s Partial
	for _, b := range c.Bufs() {
		s.AddBytes(b.Bytes())
	}
	return s.Checksum()
}

// PartialOfChain returns the un-folded sum of a chain, suitable for
// inheritance: NCache stores this with each cached entry so the transport
// checksum of an outgoing packet is header-sum + stored payload-sum, never a
// re-walk of payload bytes.
func PartialOfChain(c *Chain) Partial {
	var s Partial
	for _, b := range c.Bufs() {
		s.AddBytes(b.Bytes())
	}
	return s
}

// Combine merges two partial sums where b's data followed a's and a ended on
// an even byte boundary.
func Combine(a, b Partial) Partial {
	return Partial{sum: a.sum + b.sum, odd: b.odd}
}
