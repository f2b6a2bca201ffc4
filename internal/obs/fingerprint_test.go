package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graql/internal/lexer"
)

func TestFingerprintNormalization(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"lowercase", "SELECT * FROM TABLE T", "select * from table t"},
		{"whitespace", "select  *\n\tfrom   table t", "select * from table t"},
		{"string literal", "select * from table t where v = 'x'", "select * from table t where v = ?"},
		{"escaped quote", "select * from table t where v = 'it''s'", "select * from table t where v = ?"},
		{"int literal", "select * from table t where id < 100", "select * from table t where id < ?"},
		{"float literal", "select * from table t where p < 2.5", "select * from table t where p < ?"},
		{"exponent", "select * from table t where p < 1.5e10", "select * from table t where p < ?"},
		{"negative literal", "select * from table t where p > -3", "select * from table t where p > ?"},
		{"param", "select * from table t where v = %name%", "select * from table t where v = ?"},
		{"line comment", "select * -- not really, this is graql\nfrom table t // tail\n", "select * -- not really, this is graql from table t"},
		{"slash comment", "select * // gone\nfrom table t", "select * from table t"},
		{"block comment", "select /* literal 100 */ * from table t", "select * from table t"},
		{"arrow survives", "A ( ) --road--> B ( )", "a ( ) --road--> b ( )"},
		{"reverse arrow", "A ( ) <--road-- B ( )", "a ( ) <--road-- b ( )"},
		{"ident digits kept", "select a1 from table t2", "select a1 from table t2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, got := Fingerprint(c.in)
			if got != c.want {
				t.Errorf("Fingerprint(%q) text = %q, want %q", c.in, got, c.want)
			}
		})
	}
}

// Literal variants of the same statement shape must collide; different
// shapes must not.
func TestFingerprintCollision(t *testing.T) {
	a, _ := Fingerprint("select * from table P where price < 100")
	b, _ := Fingerprint("SELECT * FROM TABLE p WHERE price < 2500")
	c, _ := Fingerprint("select * from table P where price < 'x'")
	d, _ := Fingerprint("select * from table P where price > 100")
	if a != b {
		t.Errorf("literal variants should share a fingerprint: %x vs %x", a, b)
	}
	if a != c {
		t.Errorf("string vs numeric literal should share a fingerprint: %x vs %x", a, c)
	}
	if a == d {
		t.Errorf("different operators should not collide: both %x", a)
	}
}

// Fingerprints must be byte-stable across runs and processes: pin a known
// value so an accidental algorithm change fails loudly.
func TestFingerprintStable(t *testing.T) {
	fp, text := Fingerprint("select 1")
	if text != "select ?" {
		t.Fatalf("normalized text = %q", text)
	}
	// FNV-1a 64 of "select ?", computed independently.
	want := fnv1a("select ?")
	if fp != want {
		t.Errorf("Fingerprint = %x, want %x", fp, want)
	}
	if got := FormatFingerprint(fp); len(got) != 16 || strings.ToLower(got) != got {
		t.Errorf("FormatFingerprint = %q, want 16 lowercase hex digits", got)
	}
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func FuzzFingerprint(f *testing.F) {
	f.Add("select * from table T where id = 100")
	f.Add("create vertex City(id) from table Cities")
	f.Add("A (id = 'PDX') --road--> def B: City ( )")
	f.Add("select %p% from table T -- comment\n/* block */ where x < -1.5e3")
	f.Add("'unterminated")
	f.Add("%bad param")
	f.Add("select id from table T where s = 'it''s' and n > -3 and f < 2.5e-1 and g = 7.")
	f.Add("V (x <> 1e+5) --e(w >= 007)--> W ( ) // 'c'\n/* 'd' 9 */ 1.5.5")
	f.Fuzz(func(t *testing.T, script string) {
		fp1, text1 := Fingerprint(script)
		fp2, text2 := Fingerprint(script)
		if fp1 != fp2 || text1 != text2 {
			t.Fatalf("Fingerprint not deterministic for %q", script)
		}
		// The template probe's pass fingerprints identically, and for any
		// text that lexes its literals are exactly the lexer's literal
		// tokens.
		ts := ScanText(script)
		if ts.FP != fp1 || ts.Text != text1 {
			t.Fatalf("ScanText fingerprint %x/%q, Fingerprint %x/%q", ts.FP, ts.Text, fp1, text1)
		}
		if toks, err := lexer.Lex(script); err == nil {
			if !ts.Delimited && isASCII(script) {
				t.Fatalf("%q lexes but the pass found its literals undelimited", script)
			}
			if ts.Delimited {
				if got, want := ts.Lits, lexerLiterals(toks); !reflect.DeepEqual(got, want) {
					t.Fatalf("%q: pass literals %v, lexer literals %v", script, got, want)
				}
			}
		}
		// The hash must always match the returned normalized text.
		if fp1 != fnv1a(text1) {
			t.Fatalf("hash %x does not match normalized text %q", fp1, text1)
		}
		// The normalized text never contains the characters normalization
		// removes: upper-case letters, newlines, runs of spaces.
		if strings.ContainsAny(text1, "\n\t\r") {
			t.Fatalf("normalized text contains raw whitespace: %q", text1)
		}
		if strings.Contains(text1, "  ") {
			t.Fatalf("normalized text contains a space run: %q", text1)
		}
		for i := 0; i < len(text1); i++ {
			if text1[i] >= 'A' && text1[i] <= 'Z' {
				t.Fatalf("normalized text contains upper case: %q", text1)
			}
		}
	})
}

func TestFingerprintCached(t *testing.T) {
	r := New()
	const q = "select * from table T where id = 100"
	fp1, text1 := r.FingerprintCached(q)
	fp2, text2 := r.FingerprintCached(q) // cache hit
	dfp, dtext := Fingerprint(q)
	if fp1 != fp2 || fp1 != dfp || text1 != text2 || text1 != dtext {
		t.Fatalf("cached fingerprint diverged: %x/%q vs %x/%q vs direct %x/%q",
			fp1, text1, fp2, text2, dfp, dtext)
	}
	// Overflow the cache: the memo resets and keeps answering correctly.
	for i := 0; i < fpCacheCap+10; i++ {
		r.FingerprintCached(fmt.Sprintf("select %d from table T", i))
	}
	if fp3, _ := r.FingerprintCached(q); fp3 != fp1 {
		t.Fatalf("post-eviction fingerprint changed: %x vs %x", fp3, fp1)
	}
	// Nil registry computes directly.
	var nr *Registry
	if fp4, _ := nr.FingerprintCached(q); fp4 != fp1 {
		t.Fatalf("nil-registry fingerprint = %x, want %x", fp4, fp1)
	}
}

var sinkFP uint64

func BenchmarkFingerprint(b *testing.B) {
	const q = `select distinct P.nr, P.label from graph
	    def P: ProductVtx (propertyNum1 < 500) <--type-- ProductTypeVtx (nr = 42)
	    where P.propertyNum2 > 100 into table Result`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp, _ := Fingerprint(q)
		sinkFP = fp
	}
}

// BenchmarkScanText scans a guard-heavy dashboard probe: one literal
// per ~9 bytes, the densest text the served text front end sees.
func BenchmarkScanText(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("select top 5 id, subclassOf, publisher, date from table Types\nwhere id = 't17'")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&sb, "\n  and 'region%d' <> 'blocked%d' and %d * 10 + 7 > %d", 40+i, 40, i, i)
	}
	sb.WriteString("\norder by id asc, subclassOf desc, publisher asc")
	q := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFP = ScanText(q).Shape
	}
}

// lexerLiterals lists the lexer's literal tokens in ScanText's form.
func lexerLiterals(toks []lexer.Token) []Literal {
	out := []Literal{}
	for _, tk := range toks {
		var c LiteralClass
		switch tk.Kind {
		case lexer.String:
			c = LitString
		case lexer.Int:
			c = LitInt
		case lexer.Float:
			c = LitFloat
		default:
			continue
		}
		out = append(out, Literal{Start: tk.Start, End: tk.End, Class: c})
	}
	return out
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func TestScanTextLiterals(t *testing.T) {
	src := "select a1 from table T where s = 'it''s' and n > -3 and f < 2.5e-1 and x = 7. // 'no'\n/* 4 */ y --e--> 5"
	ts := ScanText(src)
	if !ts.Delimited {
		t.Fatal("not delimited")
	}
	var got []string
	for _, l := range ts.Lits {
		got = append(got, fmt.Sprintf("%s:%d", src[l.Start:l.End], l.Class))
	}
	want := []string{"'it''s':1", "3:2", "2.5e-1:3", "7:2", "5:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("literals %v, want %v", got, want)
	}
	if fp, text := Fingerprint(src); fp != ts.FP || text != ts.Text {
		t.Errorf("ScanText fingerprint differs from Fingerprint")
	}
	for _, bad := range []string{"select 'open", "select 1 /* open", "select caf\xe9 from table T"} {
		if ScanText(bad).Delimited {
			t.Errorf("%q: delimited, want not", bad)
		}
	}
}

// Literal variants of one class share a shape; a change of class, of the
// text around the literals or of its spelling does not.
func TestScanTextShape(t *testing.T) {
	shape := func(s string) uint64 { return ScanText(s).Shape }
	base := shape("select x from table T where s = 'a' and n < 10")
	for _, same := range []string{
		"select x from table T where s = 'a much longer string' and n < 123456",
		"select x from table T where s = '' and n < 0",
	} {
		if shape(same) != base {
			t.Errorf("%q: shape differs from its literal variant", same)
		}
	}
	for _, other := range []string{
		"select x from table T where s = 'a' and n < 1.5",
		"select x from table T where s = 1 and n < 10",
		"SELECT x from table T where s = 'a' and n < 10",
		"select x from table T where s = 'a' and  n < 10",
		"select x from table T where s = 'a' and n <= 10",
	} {
		if shape(other) == base {
			t.Errorf("%q: shares its shape with a different text", other)
		}
	}
}
