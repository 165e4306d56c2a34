// Package storage implements the on-disk format of the snapdb engine:
// fixed-size slotted pages, record encoding, and the tablespace file
// that holds them. The format is deliberately byte-addressable and
// self-describing so that the forensics package can reconstruct records
// from raw page and WAL bytes, the way InnoDB forensics tools do.
package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"strings"

	"snapdb/internal/sqlparse"
)

// Record is one table row: the values in schema column order.
type Record []sqlparse.Value

// fieldTag distinguishes value kinds in the encoding.
const (
	tagInt  byte = 0x01
	tagText byte = 0x02
)

// RecordSize returns the encoded size of r without encoding it. The
// WAL sizes every log record (LSNs are byte offsets) before deciding
// whether to encode at all, so this must not allocate.
func RecordSize(r Record) int {
	size := 2
	for _, v := range r {
		if v.IsInt {
			size += 1 + 8
		} else {
			size += 1 + 4 + len(v.Str)
		}
	}
	return size
}

// EncodeRecord serializes a record. Layout:
//
//	u16 fieldCount, then per field: tag byte, then
//	  int:  8-byte big-endian two's complement
//	  text: u32 length + bytes
//
// The encoding is length-prefixed so a forensic scan can re-parse
// records found at arbitrary offsets in log or page bytes.
func EncodeRecord(r Record) []byte {
	return AppendRecord(make([]byte, 0, RecordSize(r)), r)
}

// AppendRecord appends r's encoding to dst and returns the extended
// slice — the allocation-free form of EncodeRecord for callers that
// batch many records into one (pooled) buffer.
func AppendRecord(dst []byte, r Record) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r)))
	for _, v := range r {
		if v.IsInt {
			dst = append(dst, tagInt)
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int))
		} else {
			dst = append(dst, tagText)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.Str)))
			dst = append(dst, v.Str...)
		}
	}
	return dst
}

// DecodeRecord parses a record produced by EncodeRecord and returns the
// record plus the number of bytes consumed.
func DecodeRecord(b []byte) (Record, int, error) {
	n, err := fieldCount(b)
	if err != nil {
		return nil, 0, err
	}
	return AppendDecoded(make(Record, 0, n), b, nil, nil)
}

// fieldCount returns the number of fields the encoded record b declares.
func fieldCount(b []byte) (int, error) {
	if len(b) < 2 {
		return 0, fmt.Errorf("storage: record truncated (len %d)", len(b))
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

// FieldCount is how many fields the encoded record b declares — what
// AppendDecoded appends for it — or 0 when b is too short to say.
func FieldCount(b []byte) int {
	n, _ := fieldCount(b)
	return n
}

// AppendDecoded decodes the record encoded in b onto the end of dst and
// returns the extended slice plus the number of bytes consumed — the
// decode-side counterpart of AppendRecord, for callers that decode many
// records into one slab. Field i is skipped over, not materialized,
// when need is non-nil and need[i] is false: it comes back as the zero
// Value, so the record keeps its width. With a non-nil text, string
// fields are copied into it and returned as substrings of its contents
// (size both with DecodedSize first, so two allocations carry a whole
// batch); with nil, each gets its own allocation. Either way no Value
// aliases b.
func AppendDecoded(dst Record, b []byte, need []bool, text *strings.Builder) (Record, int, error) {
	n, err := fieldCount(b)
	if err != nil {
		return nil, 0, err
	}
	pos := 2
	for i := 0; i < n; i++ {
		if pos >= len(b) {
			return nil, 0, fmt.Errorf("storage: record field %d truncated", i)
		}
		tag := b[pos]
		pos++
		skip := i < len(need) && !need[i]
		var v sqlparse.Value
		switch tag {
		case tagInt:
			if pos+8 > len(b) {
				return nil, 0, fmt.Errorf("storage: int field %d truncated", i)
			}
			if !skip {
				v = sqlparse.IntValue(int64(binary.BigEndian.Uint64(b[pos:])))
			}
			pos += 8
		case tagText:
			if pos+4 > len(b) {
				return nil, 0, fmt.Errorf("storage: text length of field %d truncated", i)
			}
			l := int(binary.BigEndian.Uint32(b[pos:]))
			pos += 4
			if pos+l > len(b) {
				return nil, 0, fmt.Errorf("storage: text field %d truncated (want %d bytes)", i, l)
			}
			switch {
			case skip:
			case text == nil:
				v = sqlparse.StrValue(string(b[pos : pos+l]))
			default:
				off := text.Len()
				text.Write(b[pos : pos+l])
				v = sqlparse.StrValue(text.String()[off:])
			}
			pos += l
		default:
			return nil, 0, fmt.Errorf("storage: unknown field tag 0x%02x in field %d", tag, i)
		}
		dst = append(dst, v)
	}
	return dst, pos, nil
}

// DecodedSize returns what AppendDecoded(_, b, need, _) appends: the
// number of Values, and the summed length of the text fields need
// keeps. It reports no error of its own; on a record AppendDecoded will
// reject it merely stops counting text at the bad field.
func DecodedSize(b []byte, need []bool) (fields, textBytes int) {
	if len(b) < 2 {
		return 0, 0
	}
	fields = int(binary.BigEndian.Uint16(b))
	pos := 2
	for i := 0; i < fields && pos < len(b); i++ {
		switch b[pos] {
		case tagInt:
			pos += 1 + 8
		case tagText:
			if pos+5 > len(b) {
				return fields, textBytes
			}
			l := int(binary.BigEndian.Uint32(b[pos+1:]))
			pos += 1 + 4 + l
			if pos <= len(b) && (i >= len(need) || need[i]) {
				textBytes += l
			}
		default:
			return fields, textBytes
		}
	}
	return fields, textBytes
}

// DecodeKey decodes only the first field of an encoded record — the
// clustered-index key — without materializing the rest. For int keys
// this does not allocate; a text key costs its string.
func DecodeKey(b []byte) (sqlparse.Value, error) {
	isInt, i, s, err := keyField(b)
	switch {
	case err != nil:
		return sqlparse.Value{}, err
	case isInt:
		return sqlparse.IntValue(i), nil
	}
	return sqlparse.StrValue(string(s)), nil
}

// CompareKey orders the key of the encoded record b against key as
// Value.Compare orders them (ints numerically, text byte-wise, ints
// before text), reading b in place: no Value is built and nothing is
// allocated. It is what the B+ tree's in-page search probes slots with.
func CompareKey(b []byte, key sqlparse.Value) (int, error) {
	isInt, i, s, err := keyField(b)
	switch {
	case err != nil:
		return 0, err
	case isInt && key.IsInt:
		return cmp.Compare(i, key.Int), nil
	case isInt:
		return -1, nil
	case key.IsInt:
		return 1, nil
	// As comparison operands the conversions below copy nothing: the
	// compiler compares over s itself.
	case string(s) < key.Str:
		return -1, nil
	case string(s) > key.Str:
		return 1, nil
	}
	return 0, nil
}

// CompareKeys orders the keys of two encoded records, as CompareKey
// does and as cheaply.
func CompareKeys(a, b []byte) (int, error) {
	aInt, ai, as, err := keyField(a)
	if err != nil {
		return 0, err
	}
	bInt, bi, bs, err := keyField(b)
	switch {
	case err != nil:
		return 0, err
	case aInt && bInt:
		return cmp.Compare(ai, bi), nil
	case aInt:
		return -1, nil
	case bInt:
		return 1, nil
	}
	return bytes.Compare(as, bs), nil
}

// Pred is one conjunct of a WHERE clause resolved against a record:
// field position (the schema column index), comparison operator,
// literal argument.
type Pred struct {
	Col int
	Op  sqlparse.CompareOp
	Arg sqlparse.Value
}

// Match reports whether the encoded record b satisfies every pred,
// comparing the fields where they lie as CompareKey does: no Value is
// built and nothing is allocated. Its verdict is that of decoding b and
// evaluating p.Op.Eval(r[p.Col].Compare(p.Arg)) for each pred, and it
// walks and validates every field of b whatever the verdict, so it
// fails on exactly the records AppendDecoded fails on, with the same
// error — plus on a pred that names a field b does not have. (The walk
// is AppendDecoded's, written out again: sharing one field reader
// between them cost the decoders and CompareKey a third of their speed.)
func Match(b []byte, preds []Pred) (bool, error) {
	n, err := fieldCount(b)
	if err != nil {
		return false, err
	}
	ok, evaluated := true, 0
	pos := 2
	for i := 0; i < n; i++ {
		if pos >= len(b) {
			return false, fmt.Errorf("storage: record field %d truncated", i)
		}
		tag := b[pos]
		pos++
		var iv int64
		var s []byte
		switch tag {
		case tagInt:
			if pos+8 > len(b) {
				return false, fmt.Errorf("storage: int field %d truncated", i)
			}
			iv = int64(binary.BigEndian.Uint64(b[pos:]))
			pos += 8
		case tagText:
			if pos+4 > len(b) {
				return false, fmt.Errorf("storage: text length of field %d truncated", i)
			}
			l := int(binary.BigEndian.Uint32(b[pos:]))
			pos += 4
			if pos+l > len(b) {
				return false, fmt.Errorf("storage: text field %d truncated (want %d bytes)", i, l)
			}
			s = b[pos : pos+l]
			pos += l
		default:
			return false, fmt.Errorf("storage: unknown field tag 0x%02x in field %d", tag, i)
		}
		for j := range preds {
			if p := &preds[j]; p.Col == i {
				evaluated++
				ok = ok && p.Op.Eval(compareField(tag == tagInt, iv, s, p.Arg))
			}
		}
	}
	if evaluated != len(preds) {
		return false, fmt.Errorf("storage: predicate reads a field beyond the record's %d", n)
	}
	return ok, nil
}

// compareField orders one encoded field — an int in i, else text in s —
// against v as Value.Compare would order the decoded Value. (CompareKey
// keeps its own copy of this switch: routed through a call here, the
// B+ tree's slot probe ran a quarter slower.)
func compareField(isInt bool, i int64, s []byte, v sqlparse.Value) int {
	switch {
	case isInt && v.IsInt:
		return cmp.Compare(i, v.Int)
	case isInt:
		return -1
	case v.IsInt:
		return 1
	// No copy: see CompareKey.
	case string(s) < v.Str:
		return -1
	case string(s) > v.Str:
		return 1
	}
	return 0
}

// keyField parses the first field of the encoded record b in place: an
// int key comes back in i, a text key as the sub-slice s of b.
func keyField(b []byte) (isInt bool, i int64, s []byte, err error) {
	if len(b) < 2 {
		return false, 0, nil, fmt.Errorf("storage: record truncated (len %d)", len(b))
	}
	if binary.BigEndian.Uint16(b) == 0 {
		return false, 0, nil, fmt.Errorf("storage: record has no fields")
	}
	if len(b) < 3 {
		return false, 0, nil, fmt.Errorf("storage: record field 0 truncated")
	}
	pos := 3
	switch b[2] {
	case tagInt:
		if pos+8 > len(b) {
			return false, 0, nil, fmt.Errorf("storage: int field 0 truncated")
		}
		return true, int64(binary.BigEndian.Uint64(b[pos:])), nil, nil
	case tagText:
		if pos+4 > len(b) {
			return false, 0, nil, fmt.Errorf("storage: text length of field 0 truncated")
		}
		l := int(binary.BigEndian.Uint32(b[pos:]))
		pos += 4
		if pos+l > len(b) {
			return false, 0, nil, fmt.Errorf("storage: text field 0 truncated (want %d bytes)", l)
		}
		return false, 0, b[pos : pos+l], nil
	default:
		return false, 0, nil, fmt.Errorf("storage: unknown field tag 0x%02x in field 0", b[2])
	}
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two records hold the same values.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}
