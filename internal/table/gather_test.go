package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"graql/internal/value"
)

// reappend is the reference for the dictionary-preserving copies: the
// rows idx of tb appended one by one through AppendRow.
func reappend(t *testing.T, tb *Table, idx []uint32) *Table {
	t.Helper()
	out := MustNew(tb.Name, tb.Schema())
	for _, i := range idx {
		if err := out.AppendRow(tb.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameTable fails unless a and b hold the same values and, column by
// column, the same NULL rows, string codes and dictionaries.
func sameTable(t *testing.T, what string, a, b *Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: %dx%d vs %dx%d", what, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := 0; c < a.NumCols(); c++ {
		for r := uint32(0); r < uint32(a.NumRows()); r++ {
			x, y := a.Value(r, c), b.Value(r, c)
			if x.IsNull() != y.IsNull() || (!x.IsNull() && !value.Equal(x, y)) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", what, r, c, x, y)
			}
		}
		if sa, ok := a.Col(c).(*stringColumn); ok {
			sb := b.Col(c).(*stringColumn)
			if !slices.Equal(sa.codes, sb.codes) || !slices.Equal(sa.dict, sb.dict) {
				t.Fatalf("%s: column %d codes/dict differ:\n%v %v\n%v %v", what, c, sa.codes, sa.dict, sb.codes, sb.dict)
			}
		}
		if a.Col(c).Distinct() != b.Col(c).Distinct() {
			t.Fatalf("%s: column %d Distinct %d vs %d", what, c, a.Col(c).Distinct(), b.Col(c).Distinct())
		}
	}
}

func randIdx(r *rand.Rand, rows, n int) []uint32 {
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(r.Intn(rows))
	}
	return idx
}

// TestGatherMatchesReappend: Gather builds exactly the table a row-by-row
// append of the same rows builds, on sparse gathers (a map remap) and
// dense ones (a slice remap), with repeated rows and NULLs.
func TestGatherMatchesReappend(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tb := seekTable(r, 1+r.Intn(400))
		for _, n := range []int{0, 1, 3, tb.NumRows() / 20, tb.NumRows(), 2 * tb.NumRows()} {
			idx := randIdx(r, tb.NumRows(), n)
			g := tb.Gather("G", idx)
			sameTable(t, fmt.Sprintf("trial %d gather of %d", trial, n), g, reappend(t, tb, idx))
			// A gathered column has no index: seeks scan its dictionary
			// and answer like the linear reference.
			for _, v := range []value.Value{value.NewString("n1"), value.NewString("absent")} {
				if got, want := g.SeekEq(4, v), linearEq(g, 4, v); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: SeekEq on gather = %v, want %v", trial, got, want)
				}
			}
			// Appending to a gathered column rebuilds its index first.
			if err := g.AppendRow(tb.Row(0)); err != nil {
				t.Fatal(err)
			}
			sameTable(t, "append after gather", g, reappend(t, tb, append(idx, 0)))
		}
	}
}

// TestCloneCopiesDirectly: Clone keeps codes, dictionary and index as
// they are, and the clone and the original stay independent.
func TestCloneCopiesDirectly(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tb := seekTable(r, 200)
	all := make([]uint32, tb.NumRows())
	for i := range all {
		all[i] = uint32(i)
	}
	before := reappend(t, tb, all)
	c := tb.Clone()
	sameTable(t, "clone", c, before)
	for i := 0; i < 50; i++ {
		row := tb.Row(uint32(i))
		row[4] = value.NewString(fmt.Sprintf("fresh%d", i))
		if err := c.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	sameTable(t, "original after clone appends", tb, before)
	if c.NumRows() != tb.NumRows()+50 {
		t.Fatalf("clone rows = %d", c.NumRows())
	}
	if got := c.SeekEq(4, value.NewString("fresh3")); len(got) == 0 || got[len(got)-1] != uint32(tb.NumRows()+3) {
		t.Fatalf("clone seek = %v", got)
	}
}

// TestAppendColumnsMatchesAppendRow: appending gathered columns to an
// empty table (adopting them) or to a filled one (remapping codes)
// builds the table AppendRow builds, and a too-wide varchar fails on
// the row and column AppendRow fails on.
func TestAppendColumnsMatchesAppendRow(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		tb := seekTable(r, 1+r.Intn(300))
		first, second := randIdx(r, tb.NumRows(), r.Intn(200)), randIdx(r, tb.NumRows(), r.Intn(200))
		got := MustNew(tb.Name, tb.Schema())
		for _, idx := range [][]uint32{first, second} {
			g := tb.Gather("", idx)
			cols := make([]Column, g.NumCols())
			for i := range cols {
				cols[i] = g.Col(i)
			}
			if err := got.AppendColumns(cols); err != nil {
				t.Fatal(err)
			}
		}
		sameTable(t, fmt.Sprintf("trial %d", trial), got, reappend(t, tb, append(append([]uint32(nil), first...), second...)))
	}

	narrow := MustNew("N", Schema{{Name: "a", Type: value.Varchar(3)}, {Name: "b", Type: value.Varchar(3)}})
	wide := MustNew("W", Schema{{Name: "a", Type: value.Varchar(9)}, {Name: "b", Type: value.Varchar(9)}})
	for _, row := range [][2]string{{"ok", "ok"}, {"ok", "toolong"}, {"wider", "ok"}} {
		if err := wide.AppendRow([]value.Value{value.NewString(row[0]), value.NewString(row[1])}); err != nil {
			t.Fatal(err)
		}
	}
	err := narrow.AppendColumns([]Column{wide.Col(0), wide.Col(1)})
	want := reappendErr(narrow, wide)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("AppendColumns error %v, AppendRow error %v", err, want)
	}
	if narrow.NumRows() != 0 || narrow.Col(0).Len() != 0 {
		t.Fatalf("a failed AppendColumns added rows")
	}
	if err := narrow.AppendColumns([]Column{wide.Col(0)}); err == nil {
		t.Fatal("a column count mismatch must fail")
	}
}

func reappendErr(dst, src *Table) error {
	cp := MustNew(dst.Name, dst.Schema())
	for r := uint32(0); r < uint32(src.NumRows()); r++ {
		if err := cp.AppendRow(src.Row(r)); err != nil {
			return err
		}
	}
	return nil
}

// TestConcurrentReadersOfGatheredTable: seeks, reads and gathers of a
// published index-less table run beside each other and beside a writer
// that clones it and appends to the clone; the race detector checks none
// of them writes shared state.
func TestConcurrentReadersOfGatheredTable(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tb := seekTable(r, 500)
	pub := tb.Gather("P", randIdx(r, tb.NumRows(), 400))
	want := linearEq(pub, 4, value.NewString("n2"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := pub.SeekEq(4, value.NewString("n2")); !reflect.DeepEqual(got, want) {
					t.Errorf("reader %d: SeekEq = %v, want %v", w, got, want)
					return
				}
				_ = pub.Gather("", []uint32{uint32(i), uint32(i * 3)}).Value(1, 4)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c := pub.Clone()
			if err := c.AppendRow(pub.Row(uint32(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
