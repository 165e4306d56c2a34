package storage

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"snapdb/internal/sqlparse"
)

// matchByDecode is Match's specification: decode the record, then
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

// agree fails t unless Match and the specification give the same
// verdict and the same error — the same text for a decode error, any
// error for a predicate beyond the record.
func agree(t *testing.T, b []byte, preds []Pred) {
	t.Helper()
	want, wantErr := matchByDecode(b, preds)
	got, err := Match(b, preds)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Match(% x, %v): error %v, decoding says %v", b, preds, err, wantErr)
	case err != nil && wantErr != errBeyond && err.Error() != wantErr.Error():
		t.Fatalf("Match(% x, %v): error %q, decoding says %q", b, preds, err, wantErr)
	case err == nil && got != want:
		t.Fatalf("Match(% x, %v) = %v, decoding says %v", b, preds, got, want)
	}
}

// TestMatchAgreesWithDecode: every operator against every ordering of
// ints and text, arguments of the other kind, several conjuncts on one
// field, truncations of a good record at every byte, and no allocation.
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
	if ok, err := Match(long, preds); !ok || err != nil {
		t.Fatalf("Match = %v, %v", ok, err)
	}
	if n := testing.AllocsPerRun(100, func() { Match(long, preds) }); n != 0 {
		t.Errorf("Match allocates %v times", n)
	}
}

// FuzzMatchVsDecode: page bytes are attacker-reachable (a tampered
// tablespace is loaded as it is), so for arbitrary bytes and arbitrary
// predicates, evaluating on the raw bytes and decoding then comparing
// must agree on the verdict and on whether there is an error at all.
func FuzzMatchVsDecode(f *testing.F) {
	good := EncodeRecord(Record{sqlparse.IntValue(5), sqlparse.StrValue("text"), sqlparse.IntValue(9)})
	f.Add(good, 0, 0, int64(5), "", true, 2, 4, int64(0), "9", false)
	f.Add(good, 1, 5, int64(0), "text", false, 1, 2, int64(0), "u", false)
	f.Add(good[:len(good)-3], 0, 1, int64(5), "", true, 0, 1, int64(5), "", true)
	f.Add([]byte{0, 2, tagInt, 0, 0, 0, 0, 0, 0, 0, 1, 0x7f}, 0, 0, int64(1), "", true, 1, 0, int64(0), "", false)
	f.Add(binary.BigEndian.AppendUint32([]byte{0, 1, tagText}, 1<<31), 0, 3, int64(0), "x", false, 0, 0, int64(0), "", true)
	f.Fuzz(func(t *testing.T, b []byte, col1, op1 int, i1 int64, s1 string, int1 bool, col2, op2 int, i2 int64, s2 string, int2 bool) {
		arg := func(isInt bool, i int64, s string) sqlparse.Value {
			if isInt {
				return sqlparse.IntValue(i)
			}
			return sqlparse.StrValue(s)
		}
		p1 := Pred{Col: col1, Op: sqlparse.CompareOp(op1), Arg: arg(int1, i1, s1)}
		p2 := Pred{Col: col2, Op: sqlparse.CompareOp(op2), Arg: arg(int2, i2, s2)}
		agree(t, b, nil)
		agree(t, b, []Pred{p1})
		agree(t, b, []Pred{p1, p2})
	})
}
