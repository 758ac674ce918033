package kv

import (
	"bytes"
	"testing"
	"testing/quick"

	"depfast/internal/codec"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	if r := s.Apply(Command{Op: OpGet, Key: "a"}); r.Found {
		t.Fatal("get on empty store found something")
	}
	s.Apply(Command{Op: OpPut, Key: "a", Value: []byte("1")})
	r := s.Apply(Command{Op: OpGet, Key: "a"})
	if !r.Found || string(r.Value) != "1" {
		t.Fatalf("get = %+v", r)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStorePutCopiesValue(t *testing.T) {
	s := NewStore()
	v := []byte("orig")
	s.Apply(Command{Op: OpPut, Key: "k", Value: v})
	v[0] = 'X'
	r := s.Apply(Command{Op: OpGet, Key: "k"})
	if string(r.Value) != "orig" {
		t.Fatalf("store aliases caller buffer: %q", r.Value)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore()
	s.Apply(Command{Op: OpPut, Key: "a", Value: []byte("1")})
	if r := s.Apply(Command{Op: OpDelete, Key: "a"}); !r.Found {
		t.Fatal("delete existing not found")
	}
	if r := s.Apply(Command{Op: OpDelete, Key: "a"}); r.Found {
		t.Fatal("double delete found")
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStoreScan(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"d", "b", "a", "c", "e"} {
		s.Apply(Command{Op: OpPut, Key: k, Value: []byte(k)})
	}
	r := s.Apply(Command{Op: OpScan, Key: "b", ScanLen: 3})
	if len(r.Pairs) != 3 {
		t.Fatalf("scan = %+v", r.Pairs)
	}
	want := []string{"b", "c", "d"}
	for i, p := range r.Pairs {
		if p.Key != want[i] {
			t.Fatalf("scan order = %v", r.Pairs)
		}
	}
	// Scan reflects subsequent writes (cache invalidation).
	s.Apply(Command{Op: OpPut, Key: "bb", Value: []byte("x")})
	r = s.Apply(Command{Op: OpScan, Key: "b", ScanLen: 2})
	if r.Pairs[1].Key != "bb" {
		t.Fatalf("scan after insert = %v", r.Pairs)
	}
	// Scan past the end.
	r = s.Apply(Command{Op: OpScan, Key: "zzz", ScanLen: 5})
	if r.Found || len(r.Pairs) != 0 {
		t.Fatalf("scan past end = %+v", r)
	}
}

// A command round-trips; a ClientRequest, which writes its command in
// place, puts the same bytes on the wire as BytesField(Encode()); and
// both client messages state their encoded size exactly.
func TestCommandEncodeDecode(t *testing.T) {
	f := func(op uint8, key string, value, expect []byte, scan int32) bool {
		in := Command{Op: OpKind(op % 5), Key: key, Value: value, ScanLen: int(scan), Expect: expect}
		out, err := DecodeCommand(in.Encode())
		if err != nil {
			return false
		}
		req := &ClientRequest{ClientID: 3, Seq: 1 << 40, Cmd: in, TraceID: 9}
		want := codec.NewEncoder(0)
		want.Uint64(TagClientRequest)
		want.Uint64(req.ClientID)
		want.Uint64(req.Seq)
		want.BytesField(in.Encode())
		want.Uint64(req.TraceID)
		want.Uint64(0)
		want.Bool(false)
		want.Bool(false)
		resp := &ClientResponse{OK: true, LeaderHint: key, Value: value, Err: string(expect),
			Pairs: []Pair{{Key: key, Value: value}, {Key: "b", Value: expect}}}
		return out.Op == in.Op && out.Key == in.Key && bytes.Equal(out.Value, in.Value) &&
			out.ScanLen == in.ScanLen && bytes.Equal(out.Expect, in.Expect) &&
			bytes.Equal(codec.Marshal(req), want.Bytes()) &&
			codec.SizeHint(req) == want.Len() && codec.SizeHint(resp) == len(codec.Marshal(resp))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeCommandCorrupt(t *testing.T) {
	if _, err := DecodeCommand([]byte{0xff}); err == nil {
		t.Fatal("corrupt command decoded without error")
	}
}

func TestClientMessagesRoundTrip(t *testing.T) {
	req := &ClientRequest{
		ClientID: 7,
		Seq:      99,
		Cmd:      Command{Op: OpPut, Key: "k", Value: []byte("v")},
	}
	out, err := codec.Unmarshal(codec.Marshal(req))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*ClientRequest)
	if got.ClientID != 7 || got.Seq != 99 || got.Cmd.Key != "k" || string(got.Cmd.Value) != "v" {
		t.Fatalf("req = %+v", got)
	}

	resp := &ClientResponse{
		OK: true, Found: true, Value: []byte("v"),
		Pairs:      []Pair{{Key: "a", Value: []byte("1")}, {Key: "b", Value: nil}},
		LeaderHint: "s2",
	}
	out2, err := codec.Unmarshal(codec.Marshal(resp))
	if err != nil {
		t.Fatal(err)
	}
	got2 := out2.(*ClientResponse)
	if !got2.OK || !got2.Found || string(got2.Value) != "v" || len(got2.Pairs) != 2 ||
		got2.Pairs[0].Key != "a" || got2.LeaderHint != "s2" {
		t.Fatalf("resp = %+v", got2)
	}
}

func TestClientResponseNotLeader(t *testing.T) {
	resp := &ClientResponse{NotLeader: true, LeaderHint: "s3", Err: "not leader"}
	out, err := codec.Unmarshal(codec.Marshal(resp))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*ClientResponse)
	if !got.NotLeader || got.LeaderHint != "s3" || got.Err != "not leader" {
		t.Fatalf("resp = %+v", got)
	}
}

func TestSessionsExactlyOnce(t *testing.T) {
	s := NewSessions(NewStore())
	cmd := Command{Op: OpPut, Key: "ctr", Value: []byte("1")}
	s.Apply(1, 1, cmd)
	// Duplicate of seq 1 must not re-apply.
	cmd2 := Command{Op: OpPut, Key: "ctr", Value: []byte("2")}
	s.Apply(1, 1, cmd2)
	r := s.Store().Apply(Command{Op: OpGet, Key: "ctr"})
	if string(r.Value) != "1" {
		t.Fatalf("duplicate re-applied: %q", r.Value)
	}
	// New seq applies.
	s.Apply(1, 2, cmd2)
	r = s.Store().Apply(Command{Op: OpGet, Key: "ctr"})
	if string(r.Value) != "2" {
		t.Fatalf("new seq not applied: %q", r.Value)
	}
}

func TestSessionsCachedResult(t *testing.T) {
	s := NewSessions(NewStore())
	s.Store().Apply(Command{Op: OpPut, Key: "k", Value: []byte("v")})
	r1 := s.Apply(2, 1, Command{Op: OpGet, Key: "k"})
	r2 := s.Apply(2, 1, Command{Op: OpGet, Key: "k"}) // duplicate
	if !r1.Found || !r2.Found || string(r2.Value) != "v" {
		t.Fatalf("cached result = %+v", r2)
	}
}

func TestSessionsIndependentClients(t *testing.T) {
	s := NewSessions(NewStore())
	s.Apply(1, 5, Command{Op: OpPut, Key: "a", Value: []byte("1")})
	// Client 2 with a lower seq must still apply.
	s.Apply(2, 1, Command{Op: OpPut, Key: "b", Value: []byte("2")})
	if s.Store().Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Store().Len())
	}
}

func TestStorePropertyModelEquivalence(t *testing.T) {
	// Property: Store behaves like a plain map under put/get/delete.
	type step struct {
		Op    uint8
		Key   uint8
		Value uint8
	}
	f := func(steps []step) bool {
		s := NewStore()
		model := map[string]string{}
		for _, st := range steps {
			key := string(rune('a' + st.Key%8))
			val := string(rune('0' + st.Value%10))
			switch st.Op % 3 {
			case 0:
				s.Apply(Command{Op: OpPut, Key: key, Value: []byte(val)})
				model[key] = val
			case 1:
				r := s.Apply(Command{Op: OpGet, Key: key})
				mv, ok := model[key]
				if r.Found != ok || (ok && string(r.Value) != mv) {
					return false
				}
			case 2:
				r := s.Apply(Command{Op: OpDelete, Key: key})
				_, ok := model[key]
				if r.Found != ok {
					return false
				}
				delete(model, key)
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOpKindStrings(t *testing.T) {
	for _, tc := range []struct {
		op   OpKind
		want string
	}{{OpPut, "put"}, {OpGet, "get"}, {OpDelete, "delete"}, {OpScan, "scan"}} {
		if tc.op.String() != tc.want {
			t.Errorf("%v", tc.op)
		}
	}
}

func TestMergePairs(t *testing.T) {
	p := func(keys ...string) []Pair {
		out := make([]Pair, len(keys))
		for i, k := range keys {
			out[i] = Pair{Key: k, Value: []byte(k)}
		}
		return out
	}
	keysOf := func(pairs []Pair) string {
		s := ""
		for _, pr := range pairs {
			s += pr.Key + ","
		}
		return s
	}
	cases := []struct {
		name  string
		limit int
		lists [][]Pair
		want  string
	}{
		{"empty", 10, nil, ""},
		{"single list", 10, [][]Pair{p("a", "b")}, "a,b,"},
		{"interleaved", 0, [][]Pair{p("a", "c", "e"), p("b", "d")}, "a,b,c,d,e,"},
		{"limit cuts", 3, [][]Pair{p("a", "c", "e"), p("b", "d")}, "a,b,c,"},
		{"duplicate keys collapse", 0, [][]Pair{p("a", "b"), p("b", "c")}, "a,b,c,"},
		{"empty fragments", 0, [][]Pair{nil, p("x"), nil}, "x,"},
		{"three way", 4, [][]Pair{p("g"), p("a", "h"), p("c", "d", "z")}, "a,c,d,g,"},
	}
	for _, tc := range cases {
		if got := keysOf(MergePairs(tc.limit, tc.lists...)); got != tc.want {
			t.Errorf("%s: merged keys %q, want %q", tc.name, got, tc.want)
		}
	}
	// First fragment wins on duplicates.
	got := MergePairs(0, []Pair{{Key: "k", Value: []byte("first")}}, []Pair{{Key: "k", Value: []byte("second")}})
	if len(got) != 1 || string(got[0].Value) != "first" {
		t.Fatalf("duplicate resolution: %+v", got)
	}
}
