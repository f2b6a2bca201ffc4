package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graql/internal/value"
)

// seekTable extends randomTable with a date column and a string column
// that has NULLs, so every seekable kind carries NULL rows.
func seekTable(r *rand.Rand, rows int) *Table {
	base := randomTable(r, rows)
	tb := MustNew("S", append(base.Schema().Clone(),
		ColumnDef{Name: "d", Type: value.Date}, ColumnDef{Name: "n", Type: value.Text}))
	for i := uint32(0); i < uint32(rows); i++ {
		d := value.NewDate(int64(r.Intn(9)))
		n := value.NewString(fmt.Sprintf("n%d", r.Intn(3)))
		if r.Intn(5) == 0 {
			n = value.NewNull(value.KindString)
		}
		if err := tb.AppendRow(append(base.Row(i), d, n)); err != nil {
			panic(err)
		}
	}
	return tb
}

// linearEq is the reference: rows where col = v is true or unknown.
func linearEq(tb *Table, col int, v value.Value) []uint32 {
	var out []uint32
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		x := tb.Value(r, col)
		if x.IsNull() || value.Equal(x, v) {
			out = append(out, r)
		}
	}
	return out
}

func TestSeekEqMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		tb := seekTable(r, r.Intn(300))
		probes := map[int][]value.Value{
			0: {value.NewInt(0), value.NewInt(5), value.NewInt(99)},
			2: {value.NewString("g1"), value.NewString("absent")},
			3: {value.NewDate(4), value.NewDate(-1)},
			4: {value.NewString("n0"), value.NewString("n7")},
		}
		for col, vs := range probes {
			for _, v := range vs {
				got := tb.SeekEq(col, v)
				if want := linearEq(tb, col, v); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: SeekEq(%d, %v) = %v, want %v", trial, col, v, got, want)
				}
			}
		}
	}
}

func TestSeekEqRejectsMismatchedProbe(t *testing.T) {
	tb := seekTable(rand.New(rand.NewSource(1)), 10)
	for _, c := range []struct {
		col int
		v   value.Value
	}{
		{0, value.NewFloat(1)},            // float probe on an int column
		{1, value.NewFloat(1)},            // float column
		{0, value.NewNull(value.KindInt)}, // NULL probe
		{2, value.NewInt(1)},              // int probe on a string column
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SeekEq(%d, %v) must panic", c.col, c.v)
				}
			}()
			tb.SeekEq(c.col, c.v)
		}()
	}
}

// TestFilterRowsParMatchesSerial: the scan kernel over a candidate list
// gives the same rows serially and in parallel.
func TestFilterRowsParMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tb := randomTable(r, 20000)
	rows := tb.SeekEq(2, value.NewString("g3"))
	pred := func(row uint32) (bool, error) {
		v := tb.Value(row, 0)
		return !v.IsNull() && v.Int()%2 == 0, nil
	}
	serial, err := FilterRowsPar(rows, pred, Par{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		par, err := FilterRowsPar(rows, pred, testPar(w))
		if err != nil || !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers=%d: %d rows (err %v), serial %d", w, len(par), err, len(serial))
		}
	}
	if len(serial) == 0 {
		t.Fatal("fixture should select rows")
	}
}
