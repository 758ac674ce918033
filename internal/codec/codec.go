// Package codec implements the wire format used by the DepFast RPC
// framework: a small, allocation-conscious binary encoding (varints,
// length-prefixed byte strings) plus self-describing framed envelopes
// that carry a registered message type tag.
//
// The same bytes travel over the in-memory simulated network and over
// real TCP connections, so single-process experiments and multi-process
// deployments exercise an identical serialization path.
//
// # Frame ownership
//
// A message is encoded once, into one buffer that the sender gives away
// when it sends it. A delivered frame belongs to its receiver and is
// read-only: nothing writes to it after delivery, so a decoder may hand
// out pieces of it instead of copies. Decoder.View and Decoder.Rest
// alias the frame; Decoder.BytesField copies. A decoded value that
// aliases a frame keeps the whole frame alive while it is referenced,
// and whoever keeps such a value past the request copies it when it
// writes it down (kv.Store copies every value it stores).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Common decode errors.
var (
	ErrShortBuffer  = errors.New("codec: short buffer")
	ErrVarintRange  = errors.New("codec: varint overflows 64 bits")
	ErrStringTooBig = errors.New("codec: byte string exceeds limit")
	ErrUnknownType  = errors.New("codec: unknown message type")
	ErrFrameTooBig  = errors.New("codec: frame exceeds limit")
)

// MaxStringLen bounds any single encoded byte string; protects decoders
// from corrupt length prefixes.
const MaxStringLen = 64 << 20

// Encoder appends primitive values to a byte slice. The zero value is
// ready to use; Bytes returns the accumulated encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the encoder's
// internal buffer and is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends v as a LEB128 varint.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Int64 appends v zigzag-encoded, so small negative values stay small.
func (e *Encoder) Int64(v int64) {
	e.buf = binary.AppendUvarint(e.buf, zigzag(v))
}

// Int appends an int via Int64.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends the IEEE-754 bits of v, fixed 8 bytes.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// BytesField appends a length-prefixed byte string.
func (e *Encoder) BytesField(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends b as is, with no length prefix: bytes that already are an
// encoding, such as a message from Marshal.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// SizeUint64 is the number of bytes Uint64(v) appends, SizeInt64 the
// number Int64(v) appends, and SizeBytes the number a String or
// BytesField of n bytes appends. With them a message writes a nested
// encoding's length prefix, then the encoding itself, into one buffer.
func SizeUint64(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func SizeInt64(v int64) int   { return SizeUint64(zigzag(v)) }
func SizeBytes(n int) int     { return SizeUint64(uint64(n)) + n }

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Decoder reads primitive values from a byte slice. Decode methods
// return an error on malformed or truncated input; after the first
// error all further reads fail with the same error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for reading.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint64 reads a LEB128 varint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShortBuffer)
		} else {
			d.fail(ErrVarintRange)
		}
		return 0
	}
	d.off += n
	return v
}

// Int64 reads a zigzag varint.
func (d *Decoder) Int64() int64 { return unzigzag(d.Uint64()) }

// Int reads an int via Int64.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool reads a single 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(ErrShortBuffer)
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

// Float64 reads a fixed 8-byte IEEE-754 value.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// span reads a length prefix and returns that many following bytes as
// a sub-slice of the buffer, capped so an append cannot reach past it.
func (d *Decoder) span() []byte {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen {
		d.fail(ErrStringTooBig)
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(ErrShortBuffer)
		return nil
	}
	end := d.off + int(n)
	b := d.buf[d.off:end:end]
	d.off = end
	return b
}

// BytesField reads a length-prefixed byte string. The returned slice is
// a copy and remains valid after the decoder's buffer is reused.
func (d *Decoder) BytesField() []byte {
	b := d.span()
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// View reads a length-prefixed byte string as a view of the decoder's
// buffer: no copy, and valid only as long as the buffer is left alone.
// Decoders of delivered frames use it (see "Frame ownership").
func (d *Decoder) View() []byte { return d.span() }

// Rest returns every unread byte as a view of the decoder's buffer and
// consumes them: the message that ends a frame, read in place.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off:len(d.buf):len(d.buf)]
	d.off = len(d.buf)
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.span()) }

// Message is implemented by every RPC-transportable type.
type Message interface {
	// TypeTag returns the registered wire tag for the concrete type.
	TypeTag() uint32
	// MarshalTo appends the message body to the encoder.
	MarshalTo(*Encoder)
	// UnmarshalFrom reads the message body from the decoder.
	UnmarshalFrom(*Decoder)
}

// registry maps type tags to factories producing empty messages.
var registry = map[uint32]func() Message{}

// Register installs a factory for tag. It panics on duplicate tags so
// wire-format collisions fail loudly at init time.
func Register(tag uint32, factory func() Message) {
	if _, dup := registry[tag]; dup {
		panic(fmt.Sprintf("codec: duplicate message tag %d", tag))
	}
	registry[tag] = factory
}

// Registered reports whether a tag has a registered factory.
func Registered(tag uint32) bool {
	_, ok := registry[tag]
	return ok
}

// Sizer is implemented by a message that can tell how many bytes its
// body encodes to, so that the one buffer it is written into is
// allocated once, at the right size, rather than grown.
type Sizer interface {
	Size() int
}

// SizeHint is how many bytes AppendMessage(e, msg) appends: exact for
// a Sizer, a small guess otherwise.
func SizeHint(msg Message) int {
	if s, ok := msg.(Sizer); ok {
		return SizeUint64(uint64(msg.TypeTag())) + s.Size()
	}
	return 64
}

// Marshal encodes msg with its type tag prefix.
func Marshal(msg Message) []byte {
	e := NewEncoder(SizeHint(msg))
	AppendMessage(e, msg)
	return e.Bytes()
}

// AppendMessage appends msg's type tag and body to e: what Marshal
// returns, written straight into a buffer the caller is filling, such
// as an RPC envelope.
func AppendMessage(e *Encoder, msg Message) {
	e.Uint64(uint64(msg.TypeTag()))
	msg.MarshalTo(e)
}

// Unmarshal decodes a tagged message produced by Marshal.
func Unmarshal(data []byte) (Message, error) {
	d := NewDecoder(data)
	tag := d.Uint64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	factory, ok := registry[uint32(tag)]
	if !ok {
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, tag)
	}
	msg := factory()
	msg.UnmarshalFrom(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return msg, nil
}

// MaxFrameLen bounds a single framed payload on the TCP transport.
const MaxFrameLen = 128 << 20

// NewFrameEncoder returns an encoder for one frame of a byte stream:
// its first four bytes are the big-endian length of what follows,
// filled in by Frame, so the whole frame goes out in a single Write.
func NewFrameEncoder(capacity int) *Encoder {
	e := NewEncoder(4 + capacity)
	e.buf = e.buf[:4]
	return e
}

// Frame completes a frame begun with NewFrameEncoder and returns it.
func (e *Encoder) Frame() ([]byte, error) {
	n := len(e.buf) - 4
	if n > MaxFrameLen {
		return nil, ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(e.buf, uint32(n))
	return e.buf, nil
}

// ReadFrame reads one length-prefixed payload from r, into a buffer of
// its own that the caller owns.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, ErrFrameTooBig
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
