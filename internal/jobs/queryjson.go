package jobs

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	"twopcp/internal/serve"
)

// The four query routes append their bodies here instead of reflecting
// over a struct. The bytes are exactly what json.NewEncoder(w).Encode
// writes for the response structs docs/API.md describes, field order,
// compact layout and trailing newline included; queryjson_test.go keeps
// those structs and encoding/json as the oracle. Floats go through
// appendFloat; everything else is an int or a fixed key.

// queryBuf is one query response under construction, with the result
// slices the engine fills, all reused through queryBufs.
type queryBuf struct {
	b      []byte
	vals   []float64      // block values
	scored []serve.Scored // top-k and nn results
	err    error          // the first value JSON cannot carry (NaN, ±Inf)
}

var queryBufs = sync.Pool{New: func() any { return new(queryBuf) }}

// maxPooledBytes is the largest buffer release returns to the pool. A
// 2²⁰-cell block response is ~24 MB; keeping one would hold that much
// for as long as the pool does.
const maxPooledBytes = 1 << 20

func getQueryBuf() *queryBuf {
	q := queryBufs.Get().(*queryBuf)
	q.b, q.err = q.b[:0], nil
	return q
}

func (q *queryBuf) release() {
	if cap(q.b) > maxPooledBytes {
		q.b = nil
	}
	if cap(q.vals)*8 > maxPooledBytes {
		q.vals = nil
	}
	if cap(q.scored)*16 > maxPooledBytes {
		q.scored = nil
	}
	queryBufs.Put(q)
}

func (q *queryBuf) int(key string, v int) {
	q.b = strconv.AppendInt(append(q.b, key...), int64(v), 10)
}

func (q *queryBuf) float(key string, v float64) {
	q.b = append(q.b, key...)
	q.appendFloat(v)
}

// appendFloat appends v, or records the error encoding/json would give
// for it when it is not finite.
func (q *queryBuf) appendFloat(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if q.err == nil {
			q.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		return
	}
	q.b = appendFloat(q.b, v)
}

// The list appenders write an empty list as null: every empty slice a
// handler passes stands where the engine, called with a nil dst, returned
// nil (nn on a one-entity mode), and encoding/json writes a nil slice as
// null.

func (q *queryBuf) ints(key string, v []int) {
	q.b = append(q.b, key...)
	if len(v) == 0 {
		q.b = append(q.b, "null"...)
		return
	}
	q.b = append(q.b, '[')
	for i, x := range v {
		if i > 0 {
			q.b = append(q.b, ',')
		}
		q.b = strconv.AppendInt(q.b, int64(x), 10)
	}
	q.b = append(q.b, ']')
}

func (q *queryBuf) floats(key string, v []float64) {
	q.b = append(q.b, key...)
	if len(v) == 0 {
		q.b = append(q.b, "null"...)
		return
	}
	q.b = append(q.b, '[')
	for i, x := range v {
		if i > 0 {
			q.b = append(q.b, ',')
		}
		q.appendFloat(x)
	}
	q.b = append(q.b, ']')
}

func (q *queryBuf) results(key string, v []serve.Scored) {
	q.b = append(q.b, key...)
	if len(v) == 0 {
		q.b = append(q.b, "null"...)
		return
	}
	q.b = append(q.b, '[')
	for i, s := range v {
		if i > 0 {
			q.b = append(q.b, ',')
		}
		q.int(`{"index":`, s.Index)
		q.float(`,"score":`, s.Score)
		q.b = append(q.b, '}')
	}
	q.b = append(q.b, ']')
}

// writeQuery closes the body's object and sends it, or answers 500 when
// a value could not be encoded.
func writeQuery(w http.ResponseWriter, q *queryBuf) {
	if q.err != nil {
		writeEncodeFailure(w, http.StatusOK, q.err)
		return
	}
	writeBody(w, http.StatusOK, append(q.b, "}\n"...))
}

// appendFloat appends the finite v as encoding/json writes a float64: the
// shortest decimal that reads back as v, in 'f' notation, or in 'e'
// notation when |v| < 1e-6 or |v| ≥ 1e21, with the exponent's leading
// zero dropped (1e-7, not 1e-07). The digits of a normal v come from
// Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020).
// Zero and subnormals go through strconv: for the smallest subnormals
// Schubfach's rule of at least two digits picks other digits than Go's.
func appendFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	be := int(u>>52) & 0x7ff
	if be == 0 {
		if v == 0 {
			return strconv.AppendFloat(b, v, 'f', -1, 64) // "0" or "-0"
		}
		// Below 1e-6, so 'e', and an exponent of three digits: nothing to
		// trim.
		return strconv.AppendFloat(b, v, 'e', -1, 64)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	c := u&(1<<52-1) | 1<<52
	q := be - 1075 // v = ±c·2^q
	var d uint64
	var e int
	if -52 <= q && q < 0 && c&(1<<uint(-q)-1) == 0 {
		// An integer below 2⁵³ is its own shortest decimal.
		d = c >> uint(-q)
	} else {
		d, e = schubfach(q, c)
	}
	abs := math.Abs(v)
	return appendDecimal(b, d, e, abs < 1e-6 || abs >= 1e21)
}

// appendDecimal appends d·10^e, 0 < d < 10¹⁷, the way strconv's shortest
// 'f' or (sci) 'e' format lays it out, but with the exponent in as few
// digits as it takes, as encoding/json writes it.
func appendDecimal(b []byte, d uint64, e int, sci bool) []byte {
	// d as 24 digits, three words of eight, the first holding at most one
	// digit, in its last byte; the digits run from the first nonzero byte
	// to the last.
	lo := d % 1e8
	d /= 1e8
	wh, wm, wl := d/1e8<<56, digits8(d%1e8), digits8(lo)
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], wh|ascii0)
	binary.LittleEndian.PutUint64(buf[8:], wm|ascii0)
	binary.LittleEndian.PutUint64(buf[16:], wl|ascii0)
	i := 16 + bits.TrailingZeros64(wl)/8
	if wm != 0 {
		i = 8 + bits.TrailingZeros64(wm)/8
	}
	if wh != 0 {
		i = bits.TrailingZeros64(wh) / 8
	}
	j := 8 - bits.LeadingZeros64(wh)/8
	if wm != 0 {
		j = 16 - bits.LeadingZeros64(wm)/8
	}
	if wl != 0 {
		j = 24 - bits.LeadingZeros64(wl)/8
	}
	e += len(buf) - j
	digs := buf[i:j]
	n := len(digs)
	dp := n + e // v = 0.digs × 10^dp

	if sci {
		b = append(b, digs[0])
		if n > 1 {
			b = append(b, '.')
			b = append(b, digs[1:]...)
		}
		b = append(b, 'e')
		if dp > 0 {
			b = append(b, '+') // from 1e+21 up, so never one digit
		}
		return strconv.AppendInt(b, int64(dp-1), 10)
	}

	switch {
	case dp <= 0:
		b = append(b, '0', '.')
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, digs...)
	case dp >= n:
		b = append(b, digs...)
		for ; n < dp; n++ {
			b = append(b, '0')
		}
		return b
	}
	b = append(b, digs[:dp]...)
	b = append(b, '.')
	return append(b, digs[dp:]...)
}

// digits8 returns the eight decimal digits of x < 10⁸, leading zeros
// included, one a byte, the first in the low byte: the two halves of x
// split into two-digit and then one-digit lanes of one word, with no
// table and no division but the first (TestDigits8 checks every x).
func digits8(x uint64) uint64 {
	m := x/10000 | x%10000<<32
	h := m * 10486 >> 20 & (0x7f<<32 | 0x7f) // each 32-bit lane / 100
	m = (m-100*h)<<16 | h
	t := m * 103 >> 10 & (0xf<<48 | 0xf<<32 | 0xf<<16 | 0xf) // each 16-bit lane / 10
	return (m-10*t)<<8 | t
}

// ascii0 turns eight digits in the bytes of a word into ASCII.
const ascii0 = 0x3030303030303030

// Schubfach's constants for float64: the exponent of the smallest
// normal's spacing, the range of decimal exponents k its table covers,
// and c of a normal power of two.
const (
	qMin = -1074
	kMin = -324
	kMax = 292
	cMin = 1 << 52
)

// schubfach returns the shortest decimal d·10^e in the rounding interval
// of the normal v = c·2^q (c ≥ 2⁵²), the one closest to v among the
// shortest, ties to an even d. It follows figure 7 of Giulietti's paper,
// the products computed as in its figure 9.
func schubfach(q int, c uint64) (d uint64, e int) {
	out := c & 1 // the interval is closed when c is even
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != cMin || q == qMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// A power of two: its lower neighbour is half as far away.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g := &pow10Table()[k-kMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	// s has 16 or 17 digits (c ≥ 2⁵², 2^q ≥ 10^k). One digit fewer first:
	// the interval, narrower than 10^(k+1), holds at most one multiple of
	// it. (The paper guards this with s ≥ 100 for subnormals.)
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both in the interval: the closer, ties to even.
	cmp := int64(vb - (s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is the paper's round-to-odd of cp·g·2⁻¹²⁷, g = g1·2⁶³ + g0.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 is ⌊log₁₀ 2^e⌋, flog10threeQuartersPow2 ⌊log₁₀ (¾·2^e)⌋ and
// flog2pow10 ⌊log₂ 10^e⌋, exact over the exponents Schubfach asks for;
// TestSchubfachTable checks each one.
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

var pow10 struct {
	once sync.Once
	g    [kMax - kMin + 1][2]uint64
}

// pow10Table returns, for each k in [kMin, kMax], g = ⌊10⁻ᵏ·2⁻ʳ⌋ + 1 split
// as {g >> 63, g mod 2⁶³}, where r = ⌊log₂ 10⁻ᵏ⌋ − 125 puts g in
// [2¹²⁵, 2¹²⁶). It is built on first use, not at start-up: a process that
// never answers a query never pays for it.
func pow10Table() *[kMax - kMin + 1][2]uint64 {
	pow10.once.Do(func() {
		mask := new(big.Int).SetUint64(1<<63 - 1)
		for k := kMin; k <= kMax; k++ {
			r := flog2pow10(-k) - 125
			g := new(big.Int)
			if k <= 0 {
				g.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
				if r >= 0 {
					g.Rsh(g, uint(r))
				} else {
					g.Lsh(g, uint(-r))
				}
			} else {
				g.Lsh(big.NewInt(1), uint(-r))
				g.Quo(g, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil))
			}
			g.Add(g, big.NewInt(1))
			pow10.g[k-kMin] = [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), new(big.Int).And(g, mask).Uint64()}
		}
	})
	return &pow10.g
}
