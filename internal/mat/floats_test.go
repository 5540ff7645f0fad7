package mat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// floatCodec is one implementation of the four codec functions.
type floatCodec struct {
	read   func(io.Reader, []float64) error
	write  func(io.Writer, []float64) error
	append func([]byte, []float64) []byte
	decode func([]float64, []byte)
}

// floatCodecs are the build's codec and the portable loops, called
// directly so that a little-endian build tests both.
var floatCodecs = map[string]floatCodec{
	"build":    {ReadFloats, WriteFloats, AppendFloats, DecodeFloats},
	"portable": {readFloatsLoop, writeFloatsLoop, appendFloatsLoop, decodeFloatsLoop},
}

// awkwardFloats are the values whose bits a codec could lose: signed zero,
// infinities, quiet and signalling NaNs with payloads, subnormals and the
// extremes.
var awkwardFloats = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0x7ff0_0000_0000_0001),
	math.Float64frombits(0xfff8_dead_beef_cafe), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -1, math.Pi, 1e-300,
}

// floatsOfLen returns n values cycling through awkwardFloats.
func floatsOfLen(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = awkwardFloats[i%len(awkwardFloats)]
	}
	return v
}

// referenceEncoding is v through encoding/binary, value by value.
func referenceEncoding(v []float64) []byte {
	b := []byte{}
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func identicalBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d has bits %#016x, want %#016x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestFloatCodecMatchesEncodingBinary round-trips the awkward values, at
// lengths from none to more than one trip through the loops' chunk, through
// every encoder and decoder of both implementations, and compares the bytes
// with encoding/binary's and the values bit for bit.
func TestFloatCodecMatchesEncodingBinary(t *testing.T) {
	for name, c := range floatCodecs {
		for _, n := range []int{0, 1, 17, floatChunk + 3} {
			v := floatsOfLen(n)
			want := referenceEncoding(v)
			prefix := []byte("hdr")
			if got := c.append(bytes.Clone(prefix), v); !bytes.Equal(got, append(prefix, want...)) {
				t.Fatalf("%s: append of %d values differs from encoding/binary", name, n)
			}
			var buf bytes.Buffer
			if err := c.write(&buf, v); err != nil || !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s: write of %d values: err %v, bytes equal %v", name, n, err, bytes.Equal(buf.Bytes(), want))
			}
			got := make([]float64, n)
			if err := c.read(bytes.NewReader(want), got); err != nil {
				t.Fatalf("%s: read of %d values: %v", name, n, err)
			}
			identicalBits(t, name+" read", got, v)
			got = make([]float64, n)
			if err := c.read(iotest.OneByteReader(bytes.NewReader(want)), got); err != nil {
				t.Fatalf("%s: one-byte reads of %d values: %v", name, n, err)
			}
			identicalBits(t, name+" one-byte read", got, v)
			got = make([]float64, n)
			c.decode(got, append(want, 0xff))
			identicalBits(t, name+" decode", got, v)
		}
	}
}

// TestFloatCodecShortInput: a reader that ends early, at any point, is an
// error wrapping io.ErrUnexpectedEOF; a short slice to decode panics rather
// than leave values unset; empty slices are no work.
func TestFloatCodecShortInput(t *testing.T) {
	enc := referenceEncoding(floatsOfLen(17))
	for name, c := range floatCodecs {
		for _, keep := range []int{0, 1, 8, len(enc) - 1} {
			if err := c.read(bytes.NewReader(enc[:keep]), make([]float64, 17)); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: read of 17 values from %d bytes: %v, want io.ErrUnexpectedEOF", name, keep, err)
			}
		}
		if err := c.read(iotest.ErrReader(errors.New("disk on fire")), make([]float64, 2)); err == nil || !strings.Contains(err.Error(), "disk on fire") {
			t.Fatalf("%s: read error lost: %v", name, err)
		}
		if err := c.read(strings.NewReader(""), nil); err != nil {
			t.Fatalf("%s: read of no values: %v", name, err)
		}
		if err := c.write(iotest.TruncateWriter(io.Discard, 0), nil); err != nil {
			t.Fatalf("%s: write of no values: %v", name, err)
		}
		if b := c.append(nil, nil); len(b) != 0 {
			t.Fatalf("%s: append of no values gave %d bytes", name, len(b))
		}
		c.decode(nil, nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: decode of 17 values from %d bytes did not panic", name, len(enc)-1)
				}
			}()
			c.decode(make([]float64, 17), enc[:len(enc)-1])
		}()
	}
}

func TestAppendDecodeMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m := Random(5, 3, rng)
	enc := AppendMatrix([]byte("head"), m)
	if len(enc) != 4+8+8*len(m.Data) {
		t.Fatalf("AppendMatrix added %d bytes for a 5×3 matrix", len(enc)-4)
	}
	got, rest, err := DecodeMatrix(append(enc[4:], "tail"...))
	if err != nil || !got.Equal(m) || string(rest) != "tail" {
		t.Fatalf("DecodeMatrix: rest %q, err %v", rest, err)
	}
}

func TestDecodeMatrixErrors(t *testing.T) {
	// Empty input, a short header, a negative shape and shapes the input
	// cannot back are refused before anything is sized by them.
	for _, b := range [][]byte{
		nil,
		{1, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F},
		{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, _, err := DecodeMatrix(b); err == nil {
			t.Fatalf("DecodeMatrix accepted % x", b)
		}
	}
}
