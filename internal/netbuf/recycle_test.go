package netbuf

import (
	"strings"
	"testing"
)

// withDebug runs fn with ownership debugging forced on, restoring the
// previous mode afterwards.
func withDebug(t *testing.T, fn func()) {
	t.Helper()
	prev := DebugEnabled()
	SetDebug(true)
	defer SetDebug(prev)
	fn()
}

// mustPanic reports whether fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

// TestConsumedChainPoisonedInDebug: in debug mode a chain consumed by
// AppendChain is retired like a released one, so any later call on it —
// read, mutation or release — panics instead of touching a struct the free
// list may already have handed to someone else.
func TestConsumedChainPoisonedInDebug(t *testing.T) {
	withDebug(t, func() {
		uses := []struct {
			name string
			use  func(c *Chain)
		}{
			{"Len", func(c *Chain) { c.Len() }},
			{"Bufs", func(c *Chain) { c.Bufs() }},
			{"Append", func(c *Chain) { c.Append(FromBytes([]byte{1})) }},
			{"AppendChain", func(c *Chain) { c.AppendChain(NewChain()) }},
			{"Clone", func(c *Chain) { c.Clone() }},
			{"PullHeader", func(c *Chain) { _, _ = c.PullHeader(0) }},
			{"SubChain", func(c *Chain) { _, _ = c.SubChain(0, 0) }},
			{"as argument", func(c *Chain) { NewChain().AppendChain(c) }},
		}
		for _, u := range uses {
			t.Run(u.name, func(t *testing.T) {
				dst := ChainFromBytes([]byte("head"), 4)
				src := ChainFromBytes([]byte("tail"), 2)
				dst.AppendChain(src)
				mustPanic(t, "released or consumed chain", func() { u.use(src) })
				dst.Release()
			})
		}
		dst := NewChain()
		src := ChainFromBytes([]byte("x"), 1)
		dst.AppendChain(src)
		mustPanic(t, "double free", src.Release)
		dst.Release()
	})
}

// TestSetPartialCheckedInDebug: debug mode re-walks the payload on
// SetPartial and compares folded values, so an inherited partial whose raw
// sum differs only by multiples of 0xffff is accepted and a wrong one
// panics.
func TestSetPartialCheckedInDebug(t *testing.T) {
	withDebug(t, func() {
		c := ChainFromBytes([]byte("inherited checksum"), 5)
		defer c.Release()
		p := PartialOfChain(c)
		same := Partial{sum: p.sum + 3*0xffff, odd: p.odd}
		c.SetPartial(same)
		wrong := Partial{sum: p.sum + 1, odd: p.odd}
		mustPanic(t, "inherited checksum", func() { c.SetPartial(wrong) })
	})
}

// TestChainAppendRecycleZeroAllocs gates the per-packet header hand-off: a
// steady-state cycle of pooled GetChain, AppendChain onto a header chain
// and Release allocates nothing, because the consumed chain's struct and
// descriptor slice go back to the free list.
func TestChainAppendRecycleZeroAllocs(t *testing.T) {
	if DebugEnabled() {
		t.Skip("debug mode poisons released chains instead of recycling them")
	}
	pool := NewPool("tx", DefaultHeadroom, 2048, 64)
	payload := make([]byte, 3*2048+100)
	cycle := func() {
		hb, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		pc, err := pool.GetChain(payload)
		if err != nil {
			t.Fatal(err)
		}
		out := ChainOf(hb)
		out.AppendChain(pc)
		out.Release()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("GetChain/AppendChain/Release cycle allocates %.1f objects/op, want 0", avg)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool holds %d buffers after the cycles", n)
	}
}

// TestRecycledChainHoldsNoBufsAllocFree: after PullHeader drains leading
// buffers (compact) and the chain is released, no slot of its descriptor
// slice's full backing array still points at a Buf. A stale pointer there
// would keep the released buffer's pool — and with it a whole simulated
// node — reachable from the global chain free list.
func TestRecycledChainHoldsNoBufsAllocFree(t *testing.T) {
	if DebugEnabled() {
		t.Skip("debug mode never recycles chains")
	}
	pool := NewPool("rx", DefaultHeadroom, 64, 16)
	c, err := pool.GetChain(make([]byte, 5*64))
	if err != nil {
		t.Fatal(err)
	}
	backing := c.bufs[:cap(c.bufs)]
	if _, err := c.PullHeader(2*64 + 10); err != nil {
		t.Fatal(err)
	}
	rest, err := c.PullChain(64)
	if err != nil {
		t.Fatal(err)
	}
	rest.Release()
	c.Release()
	for i, b := range backing {
		if b != nil {
			t.Fatalf("slot %d of the recycled chain's backing array holds %s", i, b)
		}
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool holds %d buffers", n)
	}
}
