// Package wire is the length-prefixed little-endian framing shared by
// the binary shard codec: flat append-style encoders that grow a
// caller-owned buffer, and a bounds-checked Reader that decodes the same
// primitives without allocating or panicking on arbitrary input.
//
// The frame grammar is deliberately tiny: fixed-width little-endian
// scalars (u8/u32/u64, IEEE-754 float64 by bit pattern), booleans as a
// strict 0/1 byte, and byte strings as a u32 length prefix followed by
// the raw bytes. Slices are a u32 element count followed by the
// elements. Every message starts with a one-byte frame version so a
// future layout change is detected instead of misread.
//
// Decoding latches the first error: once a Reader has failed, every
// subsequent read returns the zero value and the original error is
// preserved for Err/Done. Errors are static sentinels (no fmt) so the
// decode path satisfies the allocfree contract; callers that need a
// classified shard error wrap them at the boundary.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ContentType is the MIME type of every /v1/shard/* request and 200
// response: the binary frame is the shard plane's only framing.
const ContentType = "application/x-bufins-shard"

// Version is the frame version byte leading every binary payload. Version
// 2 added a per-outcome counter of two-ILP repairs to insertion pass
// responses; version 3 dropped it again with the two-ILP route; version 4
// made a stratified yield wave's tally one histogram per stratum, so a
// list's length means something else than it did.
const Version = 4

// Decode sentinels. Static (errors.New, not fmt) so latching them in a
// Reader stays allocation-free on the warm decode path.
var (
	// ErrTruncated reports a frame that ends before a fixed-width field.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrLength reports a length prefix that exceeds the remaining bytes.
	ErrLength = errors.New("wire: length prefix exceeds remaining bytes")
	// ErrCount reports an element count that cannot fit in the remaining
	// bytes (guards fuzzed frames from forcing huge allocations).
	ErrCount = errors.New("wire: element count exceeds remaining bytes")
	// ErrValue reports an invalid value encoding (e.g. a boolean byte
	// that is neither 0 nor 1).
	ErrValue = errors.New("wire: invalid value encoding")
	// ErrTrailing reports leftover bytes after a complete frame.
	ErrTrailing = errors.New("wire: trailing bytes after frame")
	// ErrVersion reports an unsupported frame version byte.
	ErrVersion = errors.New("wire: unsupported frame version")
)

// AppendU8 appends one byte.
//
//contract:deterministic
//contract:allocfree
func AppendU8(buf []byte, v uint8) []byte {
	return append(buf, v)
}

// AppendU32 appends v little-endian.
//
//contract:deterministic
//contract:allocfree
func AppendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// AppendU64 appends v little-endian.
//
//contract:deterministic
//contract:allocfree
func AppendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendF64 appends the IEEE-754 bit pattern of v little-endian. The bit
// pattern round-trips exactly, so float64 values survive the codec
// bit-for-bit (the byte-identity contract's currency).
//
//contract:deterministic
//contract:allocfree
func AppendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendInt appends v as a two's-complement u64.
//
//contract:deterministic
//contract:allocfree
func AppendInt(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
}

// AppendBool appends a strict 0/1 byte.
//
//contract:deterministic
//contract:allocfree
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBytes appends a u32 length prefix followed by p.
//
//contract:deterministic
//contract:allocfree
func AppendBytes(buf []byte, p []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
	return append(buf, p...)
}

// AppendString appends a u32 length prefix followed by the bytes of s.
//
//contract:deterministic
//contract:allocfree
func AppendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// AppendF64s appends a u32 count followed by each element's bit pattern.
//
//contract:deterministic
//contract:allocfree
func AppendF64s(buf []byte, vs []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// AppendInts appends a u32 count followed by each element as a u64.
//
//contract:deterministic
//contract:allocfree
func AppendInts(buf []byte, vs []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	return buf
}

// A Reader decodes wire primitives from a byte slice. The zero Reader
// over nil bytes is valid (and immediately truncated). Readers latch the
// first decode error: after a failure every read returns the zero value,
// and Err/Done report what went wrong. A Reader never panics on
// arbitrary input — fuzzed garbage ends in a latched sentinel, not a
// crash.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader aliases b; byte-string
// reads return subslices of it.
//
//contract:deterministic
func NewReader(b []byte) Reader {
	return Reader{b: b}
}

// Err returns the first decode error, or nil.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Err() error {
	return r.err
}

// Len returns the number of unread bytes.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Len() int {
	return len(r.b) - r.off
}

// Done returns the latched decode error, or ErrTrailing when a frame
// decoded cleanly but left unread bytes behind — a short frame and an
// overlong one are both corrupt, and both must be caught.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return ErrTrailing
	}
	return nil
}

// Fail latches err (a wire sentinel) unless an earlier error already
// latched; decoders use it to reject semantically invalid frames (e.g.
// unknown flag bits) through the same path as structural failures.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U8 reads one byte.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads an IEEE-754 float64 by bit pattern.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) F64() float64 {
	return math.Float64frombits(r.U64())
}

// Int reads a two's-complement u64 as an int.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Int() int {
	return int(int64(r.U64()))
}

// Bool reads a strict 0/1 byte; anything else latches ErrValue so a
// corrupted frame cannot silently normalize to true.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err != nil {
		return false
	}
	if v > 1 {
		r.err = ErrValue
		return false
	}
	return v == 1
}

// Version reads the leading frame version byte and latches ErrVersion
// unless it equals want.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Version(want uint8) {
	v := r.U8()
	if r.err == nil && v != want {
		r.err = ErrVersion
	}
}

// Bytes reads a u32 length prefix and returns that many bytes as a
// subslice of the Reader's input (no copy; valid as long as the input).
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.err = ErrLength
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Count reads a u32 element count and verifies count*minElemSize fits in
// the remaining bytes, so a fuzzed count cannot force a huge allocation
// in the caller's element loop. On violation it latches ErrCount and
// returns 0.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Count(minElemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minElemSize > 0 && n > (len(r.b)-r.off)/minElemSize {
		r.err = ErrCount
		return 0
	}
	return n
}

// F64s reads a u32 count and appends that many float64s to dst,
// returning the grown slice (caller-owned storage, amortized).
//
//contract:deterministic
//contract:allocfree
func (r *Reader) F64s(dst []float64) []float64 {
	n := r.Count(8)
	for i := 0; i < n; i++ {
		dst = append(dst, r.F64())
	}
	return dst
}

// Ints reads a u32 count and appends that many ints to dst, returning
// the grown slice.
//
//contract:deterministic
//contract:allocfree
func (r *Reader) Ints(dst []int) []int {
	n := r.Count(8)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Int())
	}
	return dst
}
