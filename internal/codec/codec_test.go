package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripPrimitives(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(0)
	e.Uint64(1)
	e.Uint64(math.MaxUint64)
	e.Int64(0)
	e.Int64(-1)
	e.Int64(math.MinInt64)
	e.Int64(math.MaxInt64)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.Float64(3.14159)
	e.Float64(math.Inf(-1))
	e.String("hello")
	e.String("")
	e.BytesField([]byte{0, 1, 2, 255})
	e.BytesField(nil)

	d := NewDecoder(e.Bytes())
	checks := []struct {
		name string
		ok   bool
	}{
		{"u0", d.Uint64() == 0},
		{"u1", d.Uint64() == 1},
		{"umax", d.Uint64() == math.MaxUint64},
		{"i0", d.Int64() == 0},
		{"ineg", d.Int64() == -1},
		{"imin", d.Int64() == math.MinInt64},
		{"imax", d.Int64() == math.MaxInt64},
		{"int", d.Int() == -42},
		{"btrue", d.Bool() == true},
		{"bfalse", d.Bool() == false},
		{"f", d.Float64() == 3.14159},
		{"finf", math.IsInf(d.Float64(), -1)},
		{"s", d.String() == "hello"},
		{"sempty", d.String() == ""},
		{"bytes", bytes.Equal(d.BytesField(), []byte{0, 1, 2, 255})},
		{"bytesnil", len(d.BytesField()) == 0},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("round-trip failed at %s", c.name)
		}
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder(nil)
	d.Uint64()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", d.Err())
	}
	// Error is sticky; all subsequent reads return zero values.
	if d.Bool() || d.Int64() != 0 || d.String() != "" {
		t.Error("sticky error did not zero subsequent reads")
	}
}

func TestDecoderTruncatedString(t *testing.T) {
	e := NewEncoder(0)
	e.String("hello world")
	data := e.Bytes()[:4] // cut mid-string
	d := NewDecoder(data)
	_ = d.String()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", d.Err())
	}
}

func TestDecoderCorruptLength(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(MaxStringLen + 1) // bogus huge length
	d := NewDecoder(e.Bytes())
	_ = d.BytesField()
	if !errors.Is(d.Err(), ErrStringTooBig) {
		t.Fatalf("err = %v, want ErrStringTooBig", d.Err())
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder(0)
		e.Int64(v)
		d := NewDecoder(e.Bytes())
		return d.Int64() == v && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	f := func(b []byte, s string) bool {
		e := NewEncoder(0)
		e.BytesField(b)
		e.String(s)
		d := NewDecoder(e.Bytes())
		gb := d.BytesField()
		gs := d.String()
		return bytes.Equal(gb, b) && gs == s && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodedBytesAreCopies(t *testing.T) {
	e := NewEncoder(0)
	e.BytesField([]byte("abc"))
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.BytesField()
	buf[len(buf)-1] = 'X' // mutate the source
	if string(got) != "abc" {
		t.Fatalf("decoded bytes alias the source buffer: %q", got)
	}
}

// View and Rest hand out pieces of the frame itself, capped so that an
// append to one cannot overwrite the bytes after it.
func TestViewAndRestAliasTheFrame(t *testing.T) {
	e := NewEncoder(0)
	e.BytesField([]byte("abc"))
	e.Raw([]byte("tail"))
	buf := e.Bytes()
	d := NewDecoder(buf)
	view, rest := d.View(), d.Rest()
	if string(view) != "abc" || string(rest) != "tail" || d.Remaining() != 0 || d.Err() != nil {
		t.Fatalf("view %q rest %q remaining %d err %v", view, rest, d.Remaining(), d.Err())
	}
	buf[1] = 'X'
	if string(view) != "Xbc" {
		t.Fatalf("view %q does not alias the frame", view)
	}
	_ = append(view, '!')
	if string(rest) != "tail" {
		t.Fatalf("appending to a view overwrote the bytes after it: %q", rest)
	}
	if d.View() != nil || d.Err() == nil {
		t.Fatal("View past the end of the frame did not fail")
	}
}

// testMsg is a registered message for registry/marshal tests.
type testMsg struct {
	A int64
	B string
}

const testMsgTag = 60000

func (m *testMsg) TypeTag() uint32 { return testMsgTag }
func (m *testMsg) MarshalTo(e *Encoder) {
	e.Int64(m.A)
	e.String(m.B)
}
func (m *testMsg) UnmarshalFrom(d *Decoder) {
	m.A = d.Int64()
	m.B = d.String()
}

func init() { Register(testMsgTag, func() Message { return new(testMsg) }) }

func TestMarshalUnmarshalMessage(t *testing.T) {
	in := &testMsg{A: -7, B: "quorum"}
	data := Marshal(in)
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got, ok := out.(*testMsg)
	if !ok {
		t.Fatalf("wrong type %T", out)
	}
	if got.A != in.A || got.B != in.B {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestUnmarshalUnknownTag(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(59999) // unregistered
	_, err := Unmarshal(e.Bytes())
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestUnmarshalTruncatedBody(t *testing.T) {
	data := Marshal(&testMsg{A: 1, B: "xyz"})
	_, err := Unmarshal(data[:len(data)-2])
	if err == nil {
		t.Fatal("expected error for truncated body")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate tag")
		}
	}()
	Register(testMsgTag, func() Message { return new(testMsg) })
}

func TestRegistered(t *testing.T) {
	if !Registered(testMsgTag) {
		t.Error("testMsgTag should be registered")
	}
	if Registered(59998) {
		t.Error("59998 should not be registered")
	}
}

// writeFrame writes payload to buf as one frame.
func writeFrame(t *testing.T, buf *bytes.Buffer, payload []byte) {
	t.Helper()
	e := NewFrameEncoder(len(payload))
	e.Raw(payload)
	f, err := e.Frame()
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	buf.Write(f)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("first"), {}, []byte("third frame")}
	for _, p := range payloads {
		writeFrame(t, &buf, p)
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(t, &buf, []byte("payload"))
	short := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("expected error for truncated frame")
	}
}

func TestFrameTooBig(t *testing.T) {
	// Craft a header claiming an oversized frame.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.String("abc")
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("len after reset = %d", e.Len())
	}
	e.Uint64(7)
	d := NewDecoder(e.Bytes())
	if d.Uint64() != 7 || d.Err() != nil {
		t.Fatal("reuse after reset failed")
	}
}

func TestUnmarshalArbitraryBytesNeverPanics(t *testing.T) {
	// Robustness: any byte soup must produce an error or a message,
	// never a panic or an OOM-scale allocation.
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecoderArbitraryBytesNeverPanic(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		d := NewDecoder(data)
		_ = d.Uint64()
		_ = d.Int64()
		_ = d.Bool()
		_ = d.Float64()
		_ = d.String()
		_ = d.BytesField()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
