package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"snapdb/internal/sqlparse"
)

// matchByDecode is a Matcher's specification: decode the record, then
// evaluate every predicate on the decoded Values. A predicate naming a
// field the record does not have is an error, as the decode error is.
func matchByDecode(b []byte, preds []Pred) (bool, error) {
	r, _, err := AppendDecoded(nil, b, nil, nil)
	if err != nil {
		return false, err
	}
	ok := true
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(r) {
			return false, errBeyond
		}
		ok = ok && p.Op.Eval(r[p.Col].Compare(p.Arg))
	}
	return ok, nil
}

var errBeyond = errors.New("predicate beyond the record")

// agree fails t unless preds compiled for b's own layout and for each
// test layout, with every SUM column, agree with the specification.
func agree(t *testing.T, b []byte, preds []Pred) {
	t.Helper()
	for _, layout := range layoutsFor(b) {
		for _, sum := range []int{-1, 0, 1, 2, 3} {
			agreeCompiled(t, b, preds, layout, sum)
		}
	}
}

// testLayouts are the layouts every record is also compiled against,
// besides its own: snapbench's table shape and two that disagree with
// it.
var testLayouts = [][]sqlparse.ColumnType{
	{sqlparse.TypeInt, sqlparse.TypeInt, sqlparse.TypeText},
	{sqlparse.TypeInt, sqlparse.TypeText, sqlparse.TypeInt},
	{sqlparse.TypeInt, sqlparse.TypeInt, sqlparse.TypeText, sqlparse.TypeText},
	nil,
}

// layoutOf reads the layout off the record b: the type of each field
// its tags name, as far as they go.
func layoutOf(b []byte) []sqlparse.ColumnType {
	r, _, err := AppendDecoded(nil, b, nil, nil)
	if err != nil {
		return nil
	}
	out := make([]sqlparse.ColumnType, len(r))
	for i, v := range r {
		if !v.IsInt {
			out[i] = sqlparse.TypeText
		}
	}
	return out
}

func layoutsFor(b []byte) [][]sqlparse.ColumnType {
	return append([][]sqlparse.ColumnType{layoutOf(b)}, testLayouts...)
}

// sumByDecode is matchSum's specification: matchByDecode's verdict and
// error, and for a record that passes, field sum of the decoded record —
// its Int, so 0 for text — or an error when the record has no such field.
func sumByDecode(b []byte, preds []Pred, sum int) (bool, int64, error) {
	ok, err := matchByDecode(b, preds)
	if !ok || err != nil || sum < 0 {
		return ok, 0, err
	}
	r, _, err := AppendDecoded(nil, b, nil, nil)
	if err != nil {
		return false, 0, err
	}
	if sum >= len(r) {
		return true, 0, errBeyond
	}
	return true, r[sum].Int, nil
}

// agreeCompiled fails t unless preds compiled for layout (with SUM
// column sum) give the decoded verdict on b and the decoder's exact
// error (any error for a predicate beyond the record; then the verdict
// is false), and matchSum its specification's value. On a record of the
// layout the compiled pass must answer by itself, without decoding.
func agreeCompiled(t *testing.T, b []byte, preds []Pred, layout []sqlparse.ColumnType, sum int) {
	t.Helper()
	m := Compile(preds, layout, sum)
	want, wantErr := matchByDecode(b, preds)
	got, err := m.Match(b)
	if got != want || (err == nil) != (wantErr == nil) || (err != nil && wantErr != errBeyond && err.Error() != wantErr.Error()) {
		t.Fatalf("compiled for %v: Match(% x, %v) = %v, %v; decoding says %v, %v", layout, b, preds, got, err, want, wantErr)
	}
	wantOK, wantV, wantErr := sumByDecode(b, preds, sum)
	gotOK, gotV, err := m.matchSum(b)
	switch {
	case gotOK != wantOK || gotV != wantV || (err == nil) != (wantErr == nil):
		t.Fatalf("compiled for %v, sum %d: matchSum(% x, %v) = %v, %d, %v; decoding says %v, %d, %v", layout, sum, b, preds, gotOK, gotV, err, wantOK, wantV, wantErr)
	case err != nil && wantErr != errBeyond && err.Error() != wantErr.Error():
		t.Fatalf("compiled for %v, sum %d: matchSum(% x, %v) error %q, decoding says %q", layout, sum, b, preds, err, wantErr)
	}
	generic := sum >= len(layout)
	for _, p := range preds {
		generic = generic || p.Col < 0 || p.Col >= len(layout)
	}
	_, _, decErr := AppendDecoded(nil, b, nil, nil)
	if _, fits, _ := m.walk(b); !fits && !generic && decErr == nil && reflect.DeepEqual(layout, layoutOf(b)) {
		t.Fatalf("compiled for its own layout %v, record % x fell back to decoding", layout, b)
	}
}

// TestMatchAgreesWithDecode: every operator against every ordering of
// ints and text, arguments of the other kind, several conjuncts on one
// field, truncations of a good record at every byte, and no allocation
// on the compiled pass.
func TestMatchAgreesWithDecode(t *testing.T) {
	vals := []sqlparse.Value{
		sqlparse.IntValue(-1 << 63), sqlparse.IntValue(-1), sqlparse.IntValue(0), sqlparse.IntValue(7), sqlparse.IntValue(1<<63 - 1),
		sqlparse.StrValue(""), sqlparse.StrValue("a"), sqlparse.StrValue("a\x00"), sqlparse.StrValue("ab"), sqlparse.StrValue("\xff"),
	}
	ops := []sqlparse.CompareOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe, sqlparse.CompareOp(99)}
	for _, f := range vals {
		b := EncodeRecord(Record{sqlparse.IntValue(1), f, sqlparse.StrValue("tail")})
		for _, arg := range vals {
			for _, op := range ops {
				agree(t, b, []Pred{{Col: 1, Op: op, Arg: arg}})
				agree(t, b, []Pred{{Col: 0, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(1)}, {Col: 1, Op: op, Arg: arg}, {Col: 1, Op: sqlparse.OpNe, Arg: f}})
			}
		}
	}
	good := EncodeRecord(Record{sqlparse.IntValue(5), sqlparse.StrValue("text"), sqlparse.IntValue(9)})
	fails := []Pred{{Col: 0, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(6)}}
	for cut := 0; cut < len(good); cut++ {
		agree(t, good[:cut], nil)
		agree(t, good[:cut], fails) // rejected or not, a truncated record is an error
	}
	agree(t, good, nil)
	for _, col := range []int{-1, 3, 1 << 20} {
		agree(t, good, []Pred{{Col: col, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(5)}})
		agree(t, good, append([]Pred{{Col: col, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(5)}}, fails...))
	}
	bad := append([]byte(nil), good...)
	bad[2+9+5+4] = 0x7f // the third field's tag
	agree(t, bad, fails)

	long := EncodeRecord(Record{sqlparse.IntValue(5), sqlparse.IntValue(3), sqlparse.StrValue(strings.Repeat("v", 700))})
	preds := []Pred{{Col: 1, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(3)}, {Col: 2, Op: sqlparse.OpGe, Arg: sqlparse.StrValue(strings.Repeat("v", 699))}}
	compiled := Compile(preds, layoutOf(long), 1)
	if ok, v, err := compiled.matchSum(long); !ok || v != 3 || err != nil {
		t.Fatalf("matchSum = %v, %d, %v", ok, v, err)
	}
	if n := testing.AllocsPerRun(100, func() { compiled.matchSum(long) }); n != 0 {
		t.Errorf("a compiled matchSum allocates %v times", n)
	}
}

// TestCompiledEdges: the compiled intervals at the ends of int64 — an
// argument of MinInt64 under < and MaxInt64 under > passes nothing, the
// same arguments under <=, >= and != pass what they must — and
// conjuncts whose kind disagrees with the column's, which the layout
// decides once and for all.
func TestCompiledEdges(t *testing.T) {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	ops := []sqlparse.CompareOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe, sqlparse.CompareOp(-1)}
	for _, f := range ints {
		b := EncodeRecord(Record{sqlparse.IntValue(1), sqlparse.IntValue(f), sqlparse.StrValue("v")})
		for _, a := range ints {
			for _, op := range ops {
				agree(t, b, []Pred{{Col: 1, Op: op, Arg: sqlparse.IntValue(a)}})
			}
		}
		for _, op := range ops {
			// Text against the INT column, int against the TEXT one.
			agree(t, b, []Pred{{Col: 1, Op: op, Arg: sqlparse.StrValue("7")}})
			agree(t, b, []Pred{{Col: 2, Op: op, Arg: sqlparse.IntValue(f)}})
		}
	}
	for _, c := range []struct {
		op   sqlparse.CompareOp
		arg  int64
		want bool
	}{
		{sqlparse.OpLt, math.MinInt64, false},
		{sqlparse.OpGt, math.MaxInt64, false},
		{sqlparse.OpLe, math.MinInt64, true},
		{sqlparse.OpGe, math.MaxInt64, true},
	} {
		for _, f := range []int64{math.MinInt64, math.MaxInt64} {
			b := EncodeRecord(Record{sqlparse.IntValue(f)})
			m := Compile([]Pred{{Col: 0, Op: c.op, Arg: sqlparse.IntValue(c.arg)}}, []sqlparse.ColumnType{sqlparse.TypeInt}, -1)
			ok, err := m.Match(b)
			if want := c.want && f == c.arg; ok != want || err != nil {
				t.Errorf("%d %v %d compiled = %v, %v; want %v", f, c.op, c.arg, ok, err, want)
			}
		}
	}
}

// FuzzMatchVsDecode: page bytes are attacker-reachable (a tampered
// tablespace is loaded as it is), so for arbitrary bytes and arbitrary
// predicates compiled for the record's own layout, for the fuzzed one
// (a byte per column, odd for TEXT) and for the fixed test layouts —
// field count and tags agreeing with the bytes or not — evaluating on
// the raw bytes must give the decoded record's verdict and the
// decoder's exact error, and matchSum, with the fuzzed SUM column, the
// decoded record's value. RecordLen, which checks
// the bytes without decoding them, must take what DecodeRecord takes and
// fail with its exact error.
func FuzzMatchVsDecode(f *testing.F) {
	good := EncodeRecord(Record{sqlparse.IntValue(5), sqlparse.StrValue("text"), sqlparse.IntValue(9)})
	row := EncodeRecord(Record{sqlparse.IntValue(5), sqlparse.IntValue(3), sqlparse.StrValue("payload")})
	f.Add(good, 0, 0, int64(5), "", true, 2, 4, int64(0), "9", false, []byte{0, 1, 0}, 2)
	f.Add(good, 1, 5, int64(0), "text", false, 1, 2, int64(0), "u", false, []byte{0, 0, 1}, 0)
	f.Add(good[:len(good)-3], 0, 1, int64(5), "", true, 0, 1, int64(5), "", true, []byte{0, 1, 0}, -1)
	f.Add([]byte{0, 2, tagInt, 0, 0, 0, 0, 0, 0, 0, 1, 0x7f}, 0, 0, int64(1), "", true, 1, 0, int64(0), "", false, []byte{0, 0}, 1)
	f.Add(binary.BigEndian.AppendUint32([]byte{0, 1, tagText}, 1<<31), 0, 3, int64(0), "x", false, 0, 0, int64(0), "", true, []byte{1}, 0)
	f.Add(row, 1, int(sqlparse.OpLt), int64(math.MinInt64), "", true, 0, int(sqlparse.OpGt), int64(math.MaxInt64), "", true, []byte{0, 0, 1}, 1)
	f.Add(row, 1, int(sqlparse.OpNe), int64(0), "3", false, 2, int(sqlparse.OpGe), int64(7), "", true, []byte{0, 0, 1}, 0)
	f.Fuzz(func(t *testing.T, b []byte, col1, op1 int, i1 int64, s1 string, int1 bool, col2, op2 int, i2 int64, s2 string, int2 bool, shape []byte, sum int) {
		arg := func(isInt bool, i int64, s string) sqlparse.Value {
			if isInt {
				return sqlparse.IntValue(i)
			}
			return sqlparse.StrValue(s)
		}
		_, wantN, wantErr := DecodeRecord(b)
		if n, err := RecordLen(b); n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("RecordLen = %d, %v; DecodeRecord took %d, %v", n, err, wantN, wantErr)
		}
		p1 := Pred{Col: col1, Op: sqlparse.CompareOp(op1), Arg: arg(int1, i1, s1)}
		p2 := Pred{Col: col2, Op: sqlparse.CompareOp(op2), Arg: arg(int2, i2, s2)}
		agree(t, b, nil)
		agree(t, b, []Pred{p1})
		agree(t, b, []Pred{p1, p2})
		if len(shape) > 64 {
			shape = shape[:64]
		}
		layout := make([]sqlparse.ColumnType, len(shape))
		for i, c := range shape {
			if c&1 == 1 {
				layout[i] = sqlparse.TypeText
			}
		}
		for _, preds := range [][]Pred{nil, {p1}, {p1, p2}} {
			agreeCompiled(t, b, preds, layout, sum)
		}
	})
}

// BenchmarkMatch prices the verdict on one hot page of snapbench's
// (id INT, k INT, v TEXT) records, for scan_analytic's COUNT (k = ?,
// id >= ?): decoding each record and evaluating on its Values (what a
// record off the layout costs), the same conjuncts compiled for the
// layout, and the compiled leaf fold with SUM(k). An op is the whole
// page; ns/row is per record.
func BenchmarkMatch(b *testing.B) {
	p := NewPage(1, PageBTreeLeaf)
	for id := int64(0); ; id++ {
		v := fmt.Sprintf("%08x-row-t-%d-%s", uint32(id)*2654435761, id, strings.Repeat("x", 48))
		if _, err := p.InsertBytes(EncodeRecord(Record{sqlparse.IntValue(id), sqlparse.IntValue(id % 10), sqlparse.StrValue(v)})); err != nil {
			break
		}
	}
	slots, err := p.Keys()
	if err != nil {
		b.Fatal(err)
	}
	preds := []Pred{{Col: 1, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(3)}, {Col: 0, Op: sqlparse.OpGe, Arg: sqlparse.IntValue(10)}}
	layout := []sqlparse.ColumnType{sqlparse.TypeInt, sqlparse.TypeInt, sqlparse.TypeText}
	run := func(name string, page func() int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if page() == 0 {
					b.Fatal("nothing matched")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(slots)), "ns/row")
		})
	}
	decode := Compile(preds, nil, -1)
	run("decode", func() int {
		n := 0
		for _, slot := range slots {
			if ok, _ := decode.Match(p.SlotBytes(int(slot))); ok {
				n++
			}
		}
		return n
	})
	count := Compile(preds, layout, -1)
	run("compiled", func() int {
		n := 0
		for _, slot := range slots {
			if ok, _ := count.Match(p.SlotBytes(int(slot))); ok {
				n++
			}
		}
		return n
	})
	sum := Compile(preds, layout, 1)
	run("fold-sum", func() int {
		n, _, _, _ := sum.Fold(p, slots)
		return n
	})
}
