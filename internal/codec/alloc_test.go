package codec_test

import (
	"bytes"
	"testing"

	"depfast/internal/codec"
	"depfast/internal/kv"
	"depfast/internal/race"
)

// putRequest is a client put carrying one 256-byte record: the request
// every update sends.
func putRequest() *kv.ClientRequest {
	return &kv.ClientRequest{ClientID: 7, Seq: 42,
		Cmd: kv.Command{Op: kv.OpPut, Key: "user000000000017", Value: bytes.Repeat([]byte{'v'}, 256)}}
}

// Marshal sizes its one buffer from the message (codec.Sizer), so a
// request costs the encoder and that buffer: no growth, and no nested
// buffer for the command.
func TestMarshalClientRequestAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	req := putRequest()
	if n := testing.AllocsPerRun(100, func() { _ = codec.Marshal(req) }); n > 2 {
		t.Errorf("Marshal(ClientRequest with 256 B) = %.0f allocs, want <= 2", n)
	}
}

var sink []byte

func BenchmarkMarshalClientRequest(b *testing.B) {
	req := putRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = codec.Marshal(req)
	}
}
