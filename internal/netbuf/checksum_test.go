package netbuf

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// refSum is the straightforward RFC 1071 reference: big-endian 16-bit words
// accumulated in a wide integer, folded, inverted.
func refSum(p []byte) uint16 {
	var sum uint64
	for i := 0; i+1 < len(p); i += 2 {
		sum += uint64(p[i])<<8 | uint64(p[i+1])
	}
	if len(p)%2 == 1 {
		sum += uint64(p[len(p)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// TestSumMatchesReference checks Sum against the reference on arbitrary
// inputs, including odd lengths.
func TestSumMatchesReference(t *testing.T) {
	f := func(p []byte) bool { return Sum(p) == refSum(p) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSumChainFragmentationInvariance checks the linearity property the
// whole inheritance scheme rests on: the checksum of a chain equals the
// checksum of its flattened bytes no matter how the bytes are fragmented
// (odd-length fragments included).
func TestSumChainFragmentationInvariance(t *testing.T) {
	f := func(p []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewChain()
		for off := 0; off < len(p); {
			n := 1 + rng.Intn(len(p)-off)
			b := New(0, n)
			if err := b.Append(p[off : off+n]); err != nil {
				return false
			}
			c.Append(b)
			off += n
		}
		ok := SumChain(c) == Sum(p)
		c.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestCombineSplitIdentity checks Combine: for any even-length prefix
// split, sum(a) ⊕ sum(b) == sum(a++b), and the partial of a chain equals
// the combination of its parts' partials — the rule sunrpc uses to extend
// an inherited payload checksum across a prepended header.
func TestCombineSplitIdentity(t *testing.T) {
	f := func(p []byte, cut16 uint16) bool {
		cut := 0
		if len(p) > 0 {
			cut = int(cut16) % (len(p) + 1)
		}
		cut &^= 1 // Combine requires the first part to end on an even boundary
		var a, b Partial
		a.AddBytes(p[:cut])
		b.AddBytes(p[cut:])
		combined := Combine(a, b)
		return combined.Checksum() == Sum(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderPrependInheritance models the transmit path: a cached payload's
// partial is stored once, and each outgoing message folds a fresh
// even-length header in front of it without re-walking the payload.
func TestHeaderPrependInheritance(t *testing.T) {
	f := func(header, payload []byte) bool {
		if len(header)%2 == 1 {
			header = append(append([]byte(nil), header...), 0)
		}
		stored := func() Partial {
			c := ChainFromBytes(payload, 64)
			defer c.Release()
			return PartialOfChain(c)
		}()
		var hs Partial
		hs.AddBytes(header)
		combined := Combine(hs, stored)
		got := combined.Checksum()
		want := Sum(append(append([]byte(nil), header...), payload...))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialIncrementalOddBytes checks AddBytes handles arbitrary
// odd/even fragment boundaries identically to one contiguous add.
func TestPartialIncrementalOddBytes(t *testing.T) {
	p := make([]byte, 257)
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
	var whole Partial
	whole.AddBytes(p)
	for _, step := range []int{1, 2, 3, 5, 7, 64, 100} {
		var inc Partial
		for off := 0; off < len(p); off += step {
			end := off + step
			if end > len(p) {
				end = len(p)
			}
			inc.AddBytes(p[off:end])
		}
		if inc.Checksum() != whole.Checksum() {
			t.Fatalf("step %d: %#x != %#x", step, inc.Checksum(), whole.Checksum())
		}
	}
}

// refPartial is the 16-bit-at-a-time accumulator AddBytes replaced, kept as
// the reference the word-at-a-time sum must fold to. Its raw sum differs
// from Partial's; only folded values are comparable.
type refPartial struct {
	sum uint64
	odd bool
}

func (s *refPartial) addBytes(p []byte) {
	i := 0
	if s.odd && len(p) > 0 {
		s.sum += uint64(p[0])
		i = 1
		s.odd = false
	}
	for ; i+1 < len(p); i += 2 {
		s.sum += uint64(p[i])<<8 | uint64(p[i+1])
	}
	if i < len(p) {
		s.sum += uint64(p[i]) << 8
		s.odd = true
	}
}

func (s *refPartial) fold() uint16 {
	v := s.sum
	for v > 0xffff {
		v = (v >> 16) + (v & 0xffff)
	}
	return uint16(v)
}

// splitAt cuts p into fragments of random length (odd and even alike),
// starting at a random offset so the first byte may sit at an odd address.
func splitAt(p []byte, rng *rand.Rand) [][]byte {
	if len(p) > 0 {
		p = p[rng.Intn(len(p)):]
	}
	var frags [][]byte
	for len(p) > 0 {
		n := 1 + rng.Intn(len(p))
		if rng.Intn(2) == 0 && n > 67 {
			n = 1 + rng.Intn(67) // many short fragments too, not only long ones
		}
		frags = append(frags, p[:n])
		p = p[n:]
	}
	return frags
}

// randomPayload returns up to 4 KB of random bytes, long enough to cover
// the unrolled 32-byte loop, the 8-byte loop and the 16-bit tail.
func randomPayload(rng *rand.Rand) []byte {
	p := make([]byte, rng.Intn(4097))
	rng.Read(p)
	return p
}

// TestAddBytesFoldsToReference: fed the same fragments, the word-at-a-time
// AddBytes folds to the 16-bit reference's value and tracks the same byte
// parity.
func TestAddBytesFoldsToReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var got Partial
		var want refPartial
		for _, fr := range splitAt(randomPayload(rng), rng) {
			got.AddBytes(fr)
			want.addBytes(fr)
			if got.odd != want.odd || got.Fold() != want.fold() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialOfChainFoldsToReference: the partial of a chain built from
// random odd/even fragments folds to the reference sum of its bytes.
func TestPartialOfChainFoldsToReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewChain()
		var want refPartial
		for _, fr := range splitAt(randomPayload(rng), rng) {
			c.Append(FromBytes(fr))
			want.addBytes(fr)
		}
		got := PartialOfChain(c)
		c.Release()
		return got.Fold() == want.fold() && got.odd == want.odd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCombineFoldsToReference: an even-length header partial combined with
// a fragmented payload's partial folds to the reference sum over the
// concatenation — the inheritance rule udp, tcp and sunrpc rely on.
func TestCombineFoldsToReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hdr := make([]byte, 2*rng.Intn(40))
		rng.Read(hdr)
		var hs, ps Partial
		hs.AddBytes(hdr)
		var want refPartial
		want.addBytes(hdr)
		for _, fr := range splitAt(randomPayload(rng), rng) {
			ps.AddBytes(fr)
			want.addBytes(fr)
		}
		got := Combine(hs, ps)
		return got.Fold() == want.fold() && got.odd == want.odd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

var sinkSum uint16

// BenchmarkSum measures the checksum over payload sizes from one small
// header to a 64 KB datagram.
func BenchmarkSum(b *testing.B) {
	for _, n := range []int{64, 1500, 4096, 65536} {
		p := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(p)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSum = Sum(p)
			}
		})
	}
}
