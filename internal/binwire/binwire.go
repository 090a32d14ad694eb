// Package binwire holds the primitives shared by the repo's compact binary
// wire codecs (the crpd query protocol and the gossip protocol): an
// append-style encoder and a cursor-style decoder over one datagram. Every
// read is bounds-checked against the buffer before it happens, counts are
// validated against both a declared ceiling and the bytes actually
// remaining, and a hostile or corrupted datagram can only ever produce an
// error, never an out-of-range access or an attacker-sized allocation.
//
// Scalars are unsigned LEB128 varints (signed values zig-zag first); strings
// and byte blobs are length-prefixed; fixed-width words (digest hashes,
// float bits) are big-endian. The message-level formats built on these
// primitives are defined by the owning packages and documented in
// DESIGN.md "Wire".
package binwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
	"unicode/utf8"
)

// ErrShort is the uniform truncation error: any read past the end of the
// datagram. It carries no offset — decoders wrap it with field context where that matters.
var ErrShort = errors.New("binwire: message truncated")

// Enc appends wire-format fields to a buffer. The zero value is ready to
// use.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder that appends to dst, so a caller that keeps one
// buffer across messages encodes into it instead of a fresh one.
func NewEnc(dst []byte) *Enc { return &Enc{buf: dst} }

// Bytes returns the encoded message. The slice aliases the encoder's
// buffer and is only valid until the next write.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the current encoded size.
func (e *Enc) Len() int { return len(e.buf) }

// Grow makes room for n more bytes, so an encoder that knows a message's
// size up front allocates once instead of doubling its way there. (Not
// slices.Grow: under the race detector that allocates twice.)
func (e *Enc) Grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		buf := make([]byte, len(e.buf), len(e.buf)+n)
		copy(buf, e.buf)
		e.buf = buf
	}
}

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.buf = append(e.buf, v) }

// U64 appends a fixed-width big-endian word (digest hashes, float bits —
// values with full-entropy high bits, where a varint would inflate).
func (e *Enc) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// Uvarint appends an unsigned LEB128 varint.
func (e *Enc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Enc) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 appends a float64 as its fixed big-endian IEEE 754 bits; the bits
// round-trip exactly, including negative zero.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte blob.
func (e *Enc) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Time appends a wall-clock instant as seconds (zig-zag varint, so the zero
// time's year-1 instant encodes without the int64-nanosecond overflow that
// UnixNano would hit) plus sub-second nanoseconds (uvarint). Monotonic
// clock readings and locations are dropped, exactly as JSON marshaling
// drops them; Dec.Time restores the instant in UTC.
func (e *Enc) Time(t time.Time) {
	e.Varint(t.Unix())
	e.Uvarint(uint64(t.Nanosecond()))
}

// Dec walks one wire-format datagram. Every accessor checks the remaining
// bytes before reading and returns ErrShort (possibly wrapped) rather than
// touching memory past the message.
type Dec struct {
	buf []byte
	off int
}

// NewDec returns a decoder positioned at the start of raw.
func NewDec(raw []byte) *Dec { return &Dec{buf: raw} }

// Remaining returns the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Done fails if undecoded bytes remain — trailing garbage after a
// structurally complete message is a malformed datagram, not padding.
func (d *Dec) Done() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("binwire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// U8 reads one byte.
func (d *Dec) U8() (byte, error) {
	if d.off+1 > len(d.buf) {
		return 0, ErrShort
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

// U64 reads a fixed-width big-endian word.
func (d *Dec) U64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrShort
	}
	d.off += n
	return v, nil
}

// Varint reads a zig-zag signed varint.
func (d *Dec) Varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrShort
	}
	d.off += n
	return v, nil
}

// F64 reads a fixed big-endian float64.
func (d *Dec) F64() (float64, error) {
	bits, err := d.U64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// Bool reads a boolean byte; any value other than 0 or 1 is malformed (a
// canonical encoding keeps same-state messages byte-identical).
func (d *Dec) Bool() (bool, error) {
	v, err := d.U8()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, fmt.Errorf("binwire: boolean byte 0x%02x", v)
	}
	return v == 1, nil
}

// String reads a length-prefixed string of at most max bytes. The length is
// validated against both the ceiling and the remaining buffer before the
// copy, so a hostile length costs an error, not an allocation.
func (d *Dec) String(max int) (string, error) {
	n, err := d.stringLen(max)
	if err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s, nil
}

// stringLen reads a string's length prefix and checks it against max, then
// against the bytes remaining.
func (d *Dec) stringLen(max int) (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(max) {
		return 0, fmt.Errorf("binwire: string of %d bytes exceeds the %d-byte limit", n, max)
	}
	if int(n) > d.Remaining() {
		return 0, ErrShort
	}
	return int(n), nil
}

// Strings reads n consecutive length-prefixed strings of at most max bytes
// each. The result equals n calls to String — the same values, the same
// error for the first bad entry, the same final offset — but the entries
// are cut from one freshly allocated backing string, so a list costs two
// allocations (the slice and the backing) instead of one per entry. Every
// entry's length is validated before anything is allocated. The backing
// is shared by this list only: retaining one entry retains the others, so
// a holder that outlives the list keeps a strings.Clone of what it needs.
func (d *Dec) Strings(n, max int) ([]string, error) {
	total, err := d.measure(n, max)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.Grow(total)
	out := make([]string, n)
	for i := range out {
		out[i] = d.cut(&b)
	}
	return out, nil
}

// StringsTo is Strings into len(dst) fields instead of a fresh slice: the
// same validation, values and offset, with the entries cut from one
// backing, so the fields cost one allocation together (none when every
// one is empty).
func (d *Dec) StringsTo(max int, dst ...*string) error {
	total, err := d.measure(len(dst), max)
	if err != nil {
		return err
	}
	var b strings.Builder
	b.Grow(total)
	for _, f := range dst {
		*f = d.cut(&b)
	}
	return nil
}

// measure validates the lengths of the next n strings and returns their
// total with the offset rewound; on an error the offset is where n String
// calls would have stopped. A builder grown to exactly the total never
// reallocates, so each entry cut from it stays valid while later ones are
// appended.
func (d *Dec) measure(n, max int) (int, error) {
	start, total := d.off, 0
	for i := 0; i < n; i++ {
		l, err := d.stringLen(max)
		if err != nil {
			return 0, err
		}
		d.off += l
		total += l
	}
	d.off = start
	return total, nil
}

// cut copies the next validated string into b and returns it.
func (d *Dec) cut(b *strings.Builder) string {
	l, _ := d.Uvarint()
	from := b.Len()
	b.Write(d.buf[d.off : d.off+int(l)])
	d.off += int(l)
	return b.String()[from:]
}

// Blob reads a length-prefixed byte blob of at most max bytes into a fresh
// slice, under the same validation order as String.
func (d *Dec) Blob(max int) ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("binwire: blob of %d bytes exceeds the %d-byte limit", n, max)
	}
	if int(n) > d.Remaining() {
		return nil, ErrShort
	}
	b := append([]byte(nil), d.buf[d.off:d.off+int(n)]...)
	d.off += int(n)
	return b, nil
}

// Count reads a collection count bounded by max AND by the bytes actually
// remaining: each element costs at least minElemBytes on the wire, so a
// count the message cannot physically contain is rejected before any
// caller sizes an allocation from it.
func (d *Dec) Count(max, minElemBytes int) (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(max) {
		return 0, fmt.Errorf("binwire: count %d exceeds the limit %d", n, max)
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(d.Remaining()/minElemBytes) {
		return 0, ErrShort
	}
	return int(n), nil
}

// Instants outside the years 0–9999 are refused: JSON (RFC 3339) cannot
// carry them, and a decoded record must survive a JSON snapshot.
var (
	minTimeSec = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	maxTimeSec = time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
)

// Time reads an instant written by Enc.Time, restored in UTC.
func (d *Dec) Time() (time.Time, error) {
	sec, err := d.Varint()
	if err != nil {
		return time.Time{}, err
	}
	if sec < minTimeSec || sec > maxTimeSec {
		return time.Time{}, fmt.Errorf("binwire: instant %d s outside the years 0-9999", sec)
	}
	nsec, err := d.Uvarint()
	if err != nil {
		return time.Time{}, err
	}
	if nsec >= 1e9 {
		return time.Time{}, fmt.Errorf("binwire: %d nanoseconds in a sub-second field", nsec)
	}
	return time.Unix(sec, int64(nsec)).UTC(), nil
}

// UvarintLen returns the encoded size of v, for size-budget packers that
// need exact wire costs before committing an element to a message.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// StringLen returns the encoded size of a length-prefixed string.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// VarintLen returns the encoded size of a zig-zag signed varint.
func VarintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return UvarintLen(uv)
}

// TimeLen returns the encoded size of an instant.
func TimeLen(t time.Time) int {
	return VarintLen(t.Unix()) + UvarintLen(uint64(t.Nanosecond()))
}

// CheckID bounds one identity string carried by either protocol: at most max
// bytes of valid UTF-8 with no NULs (IDs end up as store keys, metric names,
// log fields and snapshot files).
func CheckID(field, v string, max int) error {
	if len(v) > max {
		return fmt.Errorf("%s is %d bytes, limit %d", field, len(v), max)
	}
	if !utf8.ValidString(v) {
		return fmt.Errorf("%s is not valid UTF-8", field)
	}
	for i := 0; i < len(v); i++ {
		if v[i] == 0 {
			return fmt.Errorf("%s contains a NUL byte", field)
		}
	}
	return nil
}
