package rpc

import (
	"strings"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/race"
)

// roundTrip is one call from a to b and its reply, waited for on a.
func (p *pair) roundTrip(co *core.Coroutine, req *echoReq) {
	co.WaitFor(p.epA.Call("b", req), time.Second)
}

// A call and its reply on a zero-delay memory network, counted across
// both runtimes and the network: each message is encoded once into one
// buffer that the receiver decodes in place, a pending call and a
// message in flight are stored by value, and the caller's wait leaves
// no timer behind.
func TestCallRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	p := newPair(t)
	req := &echoReq{Text: strings.Repeat("x", 256)}
	p.onA(t, func(co *core.Coroutine) {
		p.roundTrip(co, req) // the first call grows the maps and queues once
		if n := testing.AllocsPerRun(200, func() { p.roundTrip(co, req) }); n > 24 {
			t.Errorf("call round trip = %.0f allocs, want <= 24", n)
		}
	})
}

func BenchmarkCallRoundTrip(b *testing.B) {
	p := newPair(b)
	req := &echoReq{Text: strings.Repeat("x", 256)}
	b.ReportAllocs()
	p.onA(b, func(co *core.Coroutine) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.roundTrip(co, req)
		}
	})
}
