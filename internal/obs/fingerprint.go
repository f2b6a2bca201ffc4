package obs

import (
	"sync"
)

// Statement fingerprinting: the identity layer of the per-statement
// observability stack (and the plan-cache key of ROADMAP item 1). A
// fingerprint identifies a statement *shape* — what the statement does,
// independent of the literal values it does it with — so statistics for
// "select ... where price < 100" and "select ... where price < 2500"
// aggregate under one id, like pg_stat_statements.
//
// Normalization is a single byte-level pass (no lexer, no allocation
// beyond the output buffer) so the cost per statement stays well under a
// microsecond:
//
//   - comments ("//" and "/* */") are dropped,
//   - runs of whitespace collapse to one space,
//   - single-quoted string literals, numeric literals and %name%
//     parameter placeholders each become "?",
//   - letters fold to lower case (GraQL identifiers and keywords are
//     case-insensitive).
//
// The id is the 64-bit FNV-1a hash of the normalized text: stable across
// runs and processes, with no seed, so fingerprints can be logged,
// compared and stored durably.

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fpCacheCap bounds the registry's fingerprint memo. The map is cleared
// wholesale when full — workloads repeat a small set of statement
// shapes, so the cache refills with the live set immediately.
const fpCacheCap = 512

// fpCache memoizes Fingerprint per exact source text, so an engine
// re-executing the same script pays one map lookup instead of a full
// normalization pass per statement.
type fpCache struct {
	mu sync.Mutex
	m  map[string]fpResult
}

type fpResult struct {
	fp   uint64
	text string
}

// FingerprintCached is Fingerprint memoized in the registry (keyed on
// the exact source text; different spellings of one shape still hash to
// the same fingerprint, they just occupy separate cache slots). A nil
// registry computes directly.
func (r *Registry) FingerprintCached(script string) (uint64, string) {
	if r == nil {
		return Fingerprint(script)
	}
	c := &r.fpc
	c.mu.Lock()
	if res, ok := c.m[script]; ok {
		c.mu.Unlock()
		return res.fp, res.text
	}
	c.mu.Unlock()
	fp, text := Fingerprint(script)
	c.mu.Lock()
	if c.m == nil || len(c.m) >= fpCacheCap {
		c.m = make(map[string]fpResult, 64)
	}
	c.m[script] = fpResult{fp, text}
	c.mu.Unlock()
	return fp, text
}

// Byte-class bits for the normalization scanner: one table load replaces
// the three-comparison range tests that otherwise dominate the pass.
const (
	clIdentStart byte = 1 << 0 // letter or '_'
	clIdentCont  byte = 1 << 1 // letter, '_' or digit
	clDigit      byte = 1 << 2
	clSpace      byte = 1 << 3
)

var fpClass = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			t[c] = clIdentStart | clIdentCont
		case c >= '0' && c <= '9':
			t[c] = clDigit | clIdentCont
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			t[c] = clSpace
		}
	}
	return
}()

// Fingerprint normalizes a GraQL statement (or script) and returns its
// stable 64-bit shape id together with the normalized text. Two
// statements differing only in literal values, parameter names, comments,
// whitespace or keyword/identifier case share a fingerprint.
func Fingerprint(script string) (uint64, string) {
	fp, text, _ := scan(script, nil)
	return fp, text
}

// LiteralClass is the lexical class of a literal token: the lexer's
// string, integer or float token kind.
type LiteralClass uint8

// Literal classes.
const (
	LitString LiteralClass = iota + 1
	LitInt
	LitFloat
)

// Literal is one literal token of a scanned text: its byte span (a
// string's quotes included; a negative number's sign excluded, since the
// lexer reads it as a separate token) and its class.
type Literal struct {
	Start, End int
	Class      LiteralClass
}

// TextScan is the result of ScanText: everything the server's text
// front end learns about a request in one byte pass.
type TextScan struct {
	// FP and Text are Fingerprint's shape id and normalized text.
	FP   uint64
	Text string
	// Delimited reports that Lits are exactly the lexer's literal
	// tokens: the text has no unterminated string or block comment and
	// no byte outside strings and comments that the lexer could read as
	// a non-ASCII letter. Shape and Lits are meaningful only then.
	Delimited bool
	// Shape hashes the text with every literal token cut out (each
	// replaced by its class), so literal variants of one text share it.
	Shape uint64
	Lits  []Literal
}

// ScanText is Fingerprint extended with the literal tokens of the text,
// found by the lexer's own literal-scanning rules, and the hash of the
// text around them. It is the probe key of the engine's text template
// cache.
func ScanText(script string) TextScan {
	var ts TextScan
	ts.Lits = make([]Literal, 0, len(script)/16+8)
	ts.FP, ts.Text, ts.Delimited = scan(script, &ts.Lits)
	if ts.Delimited {
		ts.Shape = shapeHash(script, ts.Lits)
	} else {
		ts.Lits = nil
	}
	return ts
}

// scan is the single normalization pass behind Fingerprint and
// ScanText. When lits is non-nil it also collects the literal tokens;
// delimited reports whether they match the lexer's (see
// TextScan.Delimited).
func scan(script string, lits *[]Literal) (fp uint64, text string, delimited bool) {
	// The loop appends to a plain byte slice with the space/last-byte
	// bookkeeping inlined at each emission site — a closure here costs a
	// call per output byte and roughly doubles the pass. Identifier and
	// whitespace runs (the bulk of any script) are handled as runs: one
	// bulk copy plus an in-place lowercase sweep, not per-byte appends.
	// The FNV-1a hash folds into emission rather than running as a second
	// pass: its xor-multiply chain is serial (~4 cycles/byte), so hashing
	// alongside the scan hides the scanner behind the hash latency.
	buf := make([]byte, 0, len(script))
	pendingSpace := false
	h := uint64(fnvOffset64)
	delimited = true

	n := len(script)
	for i := 0; i < n; {
		c := script[i]
		switch cl := fpClass[c]; {
		case cl&clIdentStart != 0:
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			start := i
			for i < n && fpClass[script[i]]&clIdentCont != 0 {
				i++
			}
			off := len(buf)
			buf = append(buf, script[start:i]...)
			for j := off; j < len(buf); j++ {
				b := buf[j]
				if b >= 'A' && b <= 'Z' {
					b += 'a' - 'A'
					buf[j] = b
				}
				h = (h ^ uint64(b)) * fnvPrime64
			}
		case cl&clSpace != 0:
			pendingSpace = true
			for i++; i < n && fpClass[script[i]]&clSpace != 0; i++ {
			}
		case c == '/' && i+1 < n && script[i+1] == '/':
			for i < n && script[i] != '\n' {
				i++
			}
			pendingSpace = true
		case c == '/' && i+1 < n && script[i+1] == '*':
			i += 2
			for i < n && !(script[i] == '*' && i+1 < n && script[i+1] == '/') {
				i++
			}
			if i < n {
				i += 2
			} else {
				delimited = false // the lexer rejects an unterminated comment
			}
			pendingSpace = true
		case c == '\'':
			// String literal; '' is the embedded-quote escape.
			start := i
			closed := false
			i++
			for i < n {
				if script[i] == '\'' {
					if i+1 < n && script[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				i++
			}
			if !closed {
				delimited = false
			}
			if lits != nil {
				*lits = append(*lits, Literal{Start: start, End: i, Class: LitString})
			}
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, '?')
			h = (h ^ '?') * fnvPrime64
		case c == '%':
			// %name% parameter placeholder — a literal slot by definition.
			out := byte('%')
			if end := paramEnd(script, i); end > 0 {
				i, out = end, '?'
			} else {
				i++
			}
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, out)
			h = (h ^ uint64(out)) * fnvPrime64
		case cl&clDigit != 0:
			start := i
			i = numberEnd(script, i)
			if lits != nil {
				*lits = append(*lits, Literal{Start: start, End: i, Class: numberClass(script[start:i])})
			}
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, '?')
			h = (h ^ '?') * fnvPrime64
		case c == '-' && i+1 < n && script[i+1] >= '0' && script[i+1] <= '9' && unaryContext(lastByte(buf)):
			// A negative literal, not the '-' of an arrow ("-->") or a
			// subtraction: the sign folds into the '?'. The lexer reads
			// the sign as its own token, so the literal starts after it.
			start := i + 1
			i = numberEnd(script, start)
			if lits != nil {
				*lits = append(*lits, Literal{Start: start, End: i, Class: numberClass(script[start:i])})
			}
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, '?')
			h = (h ^ '?') * fnvPrime64
		default:
			if c >= 0x80 {
				// The lexer reads Latin-1 letter bytes as identifier
				// characters, which this ASCII scanner does not.
				delimited = false
			}
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, c)
			h = (h ^ uint64(c)) * fnvPrime64
			i++
		}
	}

	return h, string(buf), delimited
}

// numberClass classifies a numeric literal as the lexer does: a
// fraction or an exponent makes it a float.
func numberClass(s string) LiteralClass {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '.' || c == 'e' || c == 'E' {
			return LitFloat
		}
	}
	return LitInt
}

// shapeHash hashes the text around the literal tokens, each literal
// replaced by its class. It only spreads texts over the template cache:
// a hit still compares the text around the literals byte for byte, so a
// collision costs a comparison, never a wrong answer. Segments are
// folded eight bytes per step.
func shapeHash(script string, lits []Literal) uint64 {
	h := uint64(fnvOffset64)
	prev := 0
	for _, l := range lits {
		h = hashSegment(h, script[prev:l.Start])
		h = (h ^ uint64(l.Class)<<56 ^ uint64(l.Start-prev)) * fnvPrime64
		prev = l.End
	}
	h = hashSegment(h, script[prev:])
	h ^= h >> 31
	return h
}

func hashSegment(h uint64, s string) uint64 {
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (h ^ w) * fnvPrime64
		h ^= h >> 29
		s = s[8:]
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// lastByte is the most recent normalized byte (0 before any output) —
// the one-token lookbehind for classifying '-' as sign vs operator.
func lastByte(buf []byte) byte {
	if len(buf) == 0 {
		return 0
	}
	return buf[len(buf)-1]
}

// FormatFingerprint renders a fingerprint in its canonical form: 16
// lower-case hex digits (the form used in logs, JSON and metric labels).
func FormatFingerprint(fp uint64) string {
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[fp&0xf]
		fp >>= 4
	}
	return string(out[:])
}

// paramEnd returns the index just past a %name% placeholder starting at
// i, or 0 when the '%' does not open one.
func paramEnd(s string, i int) int {
	j := i + 1
	if j >= len(s) || !isIdentStart(s[j]) {
		return 0
	}
	for j < len(s) && isIdentByte(s[j]) {
		j++
	}
	if j < len(s) && s[j] == '%' {
		return j + 1
	}
	return 0
}

// numberEnd returns the index just past a numeric literal starting at i
// (digits, optional fraction, optional exponent).
func numberEnd(s string, i int) int {
	n := len(s)
	for i < n && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i+1 < n && s[i] == '.' && s[i+1] >= '0' && s[i+1] <= '9' {
		i++
		for i < n && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	if i < n && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < n && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j < n && s[j] >= '0' && s[j] <= '9' {
			for j < n && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			i = j
		}
	}
	return i
}

// unaryContext reports whether a '-' following the given normalized byte
// reads as a sign rather than an operator or arrow: after nothing, an
// opening paren, a comma, a comparison or an arithmetic operator.
func unaryContext(last byte) bool {
	switch last {
	case 0, '(', ',', '=', '<', '>', '+', '*', '/':
		return true
	}
	return false
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
