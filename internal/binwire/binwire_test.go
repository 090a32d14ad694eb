package binwire

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRoundTrip drives every primitive through an encode/decode cycle and
// requires exact restoration plus a clean Done.
func TestRoundTrip(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 34, 56, 789123456, time.UTC)
	var e Enc
	e.U8(0xAB)
	e.U64(0xDEADBEEFCAFEF00D)
	e.Uvarint(0)
	e.Uvarint(1 << 60)
	e.Varint(-1 << 40)
	e.F64(math.Copysign(0, -1))
	e.F64(1.5e-300)
	e.Bool(true)
	e.Bool(false)
	e.String("")
	e.String("hello, 世界")
	e.Blob([]byte{0, 1, 2})
	e.Time(at)
	e.Time(time.Time{})

	d := NewDec(e.Bytes())
	if v, err := d.U8(); err != nil || v != 0xAB {
		t.Fatalf("U8 = %x, %v", v, err)
	}
	if v, err := d.U64(); err != nil || v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("U64 = %x, %v", v, err)
	}
	if v, err := d.Uvarint(); err != nil || v != 0 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if v, err := d.Uvarint(); err != nil || v != 1<<60 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != -1<<40 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := d.F64(); err != nil || math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 = %v, %v (negative zero must round-trip bit-exactly)", v, err)
	}
	if v, err := d.F64(); err != nil || v != 1.5e-300 {
		t.Fatalf("F64 = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || !v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := d.String(10); err != nil || v != "" {
		t.Fatalf("String = %q, %v", v, err)
	}
	if v, err := d.String(64); err != nil || v != "hello, 世界" {
		t.Fatalf("String = %q, %v", v, err)
	}
	if v, err := d.Blob(8); err != nil || string(v) != "\x00\x01\x02" {
		t.Fatalf("Blob = %x, %v", v, err)
	}
	if v, err := d.Time(); err != nil || !v.Equal(at) || v.Nanosecond() != at.Nanosecond() {
		t.Fatalf("Time = %v, %v", v, err)
	}
	if v, err := d.Time(); err != nil || !v.Equal(time.Time{}) {
		t.Fatalf("zero Time = %v, %v", v, err)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// TestTruncation pins that every accessor fails with ErrShort on an empty
// buffer instead of reading past it.
func TestTruncation(t *testing.T) {
	probes := map[string]func(*Dec) error{
		"U8":      func(d *Dec) error { _, err := d.U8(); return err },
		"U64":     func(d *Dec) error { _, err := d.U64(); return err },
		"Uvarint": func(d *Dec) error { _, err := d.Uvarint(); return err },
		"Varint":  func(d *Dec) error { _, err := d.Varint(); return err },
		"F64":     func(d *Dec) error { _, err := d.F64(); return err },
		"Bool":    func(d *Dec) error { _, err := d.Bool(); return err },
		"String":  func(d *Dec) error { _, err := d.String(8); return err },
		"Time":    func(d *Dec) error { _, err := d.Time(); return err },
	}
	for name, probe := range probes {
		if err := probe(NewDec(nil)); !errors.Is(err, ErrShort) {
			t.Fatalf("%s on empty buffer = %v, want ErrShort", name, err)
		}
	}
	// A string length that overruns the remaining bytes must fail before
	// allocating.
	var e Enc
	e.Uvarint(1000)
	e.U8('x')
	if _, err := NewDec(e.Bytes()).String(4096); !errors.Is(err, ErrShort) {
		t.Fatalf("overrunning string length = %v, want ErrShort", err)
	}
}

// TestBounds pins the ceiling checks: string/count limits reject limit+1
// and accept the exact limit.
func TestBounds(t *testing.T) {
	var e Enc
	e.String(strings.Repeat("a", 16))
	if _, err := NewDec(e.Bytes()).String(16); err != nil {
		t.Fatalf("String at limit = %v, want ok", err)
	}
	if _, err := NewDec(e.Bytes()).String(15); err == nil {
		t.Fatal("String over limit accepted")
	}

	e.Reset()
	e.Uvarint(100)
	e.buf = append(e.buf, make([]byte, 100)...)
	if n, err := NewDec(e.Bytes()).Count(100, 1); err != nil || n != 100 {
		t.Fatalf("Count at limit = %d, %v", n, err)
	}
	if _, err := NewDec(e.Bytes()).Count(99, 1); err == nil {
		t.Fatal("Count over limit accepted")
	}
	// A count the message physically cannot contain (each element >= 2
	// bytes, but only 100 bytes remain) fails as truncation.
	if _, err := NewDec(e.Bytes()).Count(100, 2); !errors.Is(err, ErrShort) {
		t.Fatalf("physically impossible count = %v, want ErrShort", err)
	}

	// Non-canonical boolean bytes are malformed.
	if _, err := NewDec([]byte{2}).Bool(); err == nil {
		t.Fatal("Bool accepted 0x02")
	}
	// Sub-second field >= 1e9 is malformed.
	e.Reset()
	e.Varint(0)
	e.Uvarint(1e9)
	if _, err := NewDec(e.Bytes()).Time(); err == nil {
		t.Fatal("Time accepted 1e9 nanoseconds")
	}
	// Instants are bounded to the years JSON can carry.
	for _, c := range []struct {
		at time.Time
		ok bool
	}{
		{time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), true},
		{time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), true},
		{time.Date(-1, 12, 31, 23, 59, 59, 999999999, time.UTC), false},
		{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), false},
	} {
		e.Reset()
		e.Time(c.at)
		if _, err := NewDec(e.Bytes()).Time(); (err == nil) != c.ok {
			t.Fatalf("Time(%v): err = %v, want ok=%v", c.at, err, c.ok)
		}
	}
}

// TestSizeHelpers pins the exact-size helpers against the encoder: packers
// budget with these, so a drifting helper silently breaks wire bounds.
func TestSizeHelpers(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1}
	for _, v := range uvals {
		var e Enc
		e.Uvarint(v)
		if got := UvarintLen(v); got != e.Len() {
			t.Fatalf("UvarintLen(%d) = %d, encoder wrote %d", v, got, e.Len())
		}
	}
	ivals := []int64{0, -1, 1, -64, 64, -1 << 40, 1<<63 - 1, -1 << 63}
	for _, v := range ivals {
		var e Enc
		e.Varint(v)
		if got := VarintLen(v); got != e.Len() {
			t.Fatalf("VarintLen(%d) = %d, encoder wrote %d", v, got, e.Len())
		}
	}
	for _, s := range []string{"", "x", strings.Repeat("y", 300)} {
		var e Enc
		e.String(s)
		if got := StringLen(s); got != e.Len() {
			t.Fatalf("StringLen(%d bytes) = %d, encoder wrote %d", len(s), got, e.Len())
		}
	}
	for _, at := range []time.Time{{}, time.Unix(1_800_000_000, 999_999_999), time.Unix(-5, 1)} {
		var e Enc
		e.Time(at)
		if got := TimeLen(at); got != e.Len() {
			t.Fatalf("TimeLen(%v) = %d, encoder wrote %d", at, got, e.Len())
		}
	}
}

// TestStringsMatchesString is the property test for Dec.Strings: on seeded
// lists, every truncation of them and an over-limit length at every entry,
// Strings(n, max) must equal n calls to String(max) on values, error and
// final offset.
func TestStringsMatchesString(t *testing.T) {
	const max = 12
	// Every message opens with one byte of another field, so the list does
	// not start at offset zero.
	oneByOne := func(raw []byte, n int) ([]string, error, int) {
		d := NewDec(raw)
		d.U8()
		out := make([]string, n)
		for i := range out {
			s, err := d.String(max)
			if err != nil {
				return nil, err, d.off
			}
			out[i] = s
		}
		return out, nil, d.off
	}
	check := func(name string, raw []byte, n int) {
		t.Helper()
		want, wantErr, wantOff := oneByOne(raw, n)
		d := NewDec(raw)
		d.U8()
		got, err := d.Strings(n, max)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || errors.Is(err, ErrShort) != errors.Is(wantErr, ErrShort) {
			t.Fatalf("%s: Strings error %v, String gives %v", name, err, wantErr)
		}
		if d.off != wantOff {
			t.Fatalf("%s: Strings stops at offset %d, String at %d", name, d.off, wantOff)
		}
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: Strings = %q, String gives %q", name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(34))
	for c := 0; c < 200; c++ {
		n := rng.Intn(8)
		lens := make([]int, n)
		var e Enc
		e.U8(0xEE)
		for i := range lens {
			lens[i] = rng.Intn(max + 1)
			b := make([]byte, lens[i])
			rng.Read(b)
			e.String(string(b))
		}
		e.U8(0xEE) // a trailing field Strings must not consume
		raw := e.Bytes()
		for cut := 1; cut <= len(raw); cut++ {
			check(fmt.Sprintf("case %d cut %d/%d", c, cut, len(raw)), raw[:cut], n)
		}
		// An over-limit length at each entry, the rest of the list intact.
		for bad := 0; bad < n; bad++ {
			var o Enc
			o.U8(0xEE)
			for i, l := range lens {
				if i == bad {
					l = max + 1 + rng.Intn(3)
				}
				o.String(strings.Repeat("x", l))
			}
			check(fmt.Sprintf("case %d over-limit entry %d", c, bad), o.Bytes(), n)
		}
	}
}
