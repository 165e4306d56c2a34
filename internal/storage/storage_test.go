package storage

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"snapdb/internal/sqlparse"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{},
		{sqlparse.IntValue(42)},
		{sqlparse.StrValue("hello")},
		{sqlparse.IntValue(-7), sqlparse.StrValue("mixed"), sqlparse.IntValue(1 << 40)},
		{sqlparse.StrValue("")},
	}
	for _, r := range recs {
		enc := EncodeRecord(r)
		dec, n, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("DecodeRecord(%v): %v", r, err)
		}
		if n != len(enc) {
			t.Errorf("consumed %d of %d bytes", n, len(enc))
		}
		if !dec.Equal(r) {
			t.Errorf("round trip: got %v want %v", dec, r)
		}
	}
}

func TestDecodeRecordTruncated(t *testing.T) {
	enc := EncodeRecord(Record{sqlparse.StrValue("hello world")})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeRecord(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRecordBadTag(t *testing.T) {
	enc := EncodeRecord(Record{sqlparse.IntValue(1)})
	enc[2] = 0x99
	if _, _, err := DecodeRecord(enc); err == nil {
		t.Error("bad tag accepted")
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(i int64, s string) bool {
		r := Record{sqlparse.IntValue(i), sqlparse.StrValue(s)}
		dec, _, err := DecodeRecord(EncodeRecord(r))
		return err == nil && dec.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// AppendDecoded into one slab, under every mask, agrees with
// DecodeRecord field for field (pruned fields zero), DecodedSize
// predicts exactly what it appends, and the text it hands out does not
// alias the encoded bytes.
func TestAppendDecodedMasksAndSlabs(t *testing.T) {
	recs := []Record{
		{sqlparse.IntValue(7), sqlparse.StrValue("alpha"), sqlparse.IntValue(-1), sqlparse.StrValue("")},
		{sqlparse.StrValue("key"), sqlparse.StrValue("beta-gamma"), sqlparse.IntValue(9), sqlparse.StrValue("z")},
		{sqlparse.IntValue(0)},
		{},
	}
	for mask := -1; mask < 16; mask++ {
		var need []bool // mask -1: nil, every field
		if mask >= 0 {
			need = []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0} // field 3 is past the mask: kept
		}
		var encs [][]byte
		fields, textBytes := 0, 0
		for _, r := range recs {
			enc := EncodeRecord(r)
			encs = append(encs, enc)
			n, tb := DecodedSize(enc, need)
			fields += n
			textBytes += tb
		}
		slab := make(Record, 0, fields)
		var text strings.Builder
		text.Grow(textBytes)
		var rows []Record
		for i, enc := range encs {
			start := len(slab)
			var used int
			var err error
			slab, used, err = AppendDecoded(slab, enc, need, &text)
			if err != nil || used != len(enc) {
				t.Fatalf("mask %d rec %d: used %d of %d, err %v", mask, i, used, len(enc), err)
			}
			rows = append(rows, slab[start:len(slab):len(slab)])
		}
		if len(slab) != fields || cap(slab) != fields || text.Len() != textBytes {
			t.Errorf("mask %d: DecodedSize said %d values / %d text bytes, AppendDecoded made %d (cap %d) / %d",
				mask, fields, textBytes, len(slab), cap(slab), text.Len())
		}
		for i := range encs {
			for j := range encs[i] {
				encs[i][j] = 0xEE // the decoded values must own their bytes
			}
		}
		for i, r := range recs {
			want := make(Record, len(r))
			for j, v := range r {
				if j >= len(need) || need[j] {
					want[j] = v
				}
			}
			if !rows[i].Equal(want) {
				t.Errorf("mask %d rec %d = %v, want %v", mask, i, rows[i], want)
			}
		}
	}

	// Damaged input fails the same way DecodeRecord does, pruned or not.
	enc := EncodeRecord(recs[1])
	for cut := 0; cut < len(enc); cut++ {
		_, _, wantErr := DecodeRecord(enc[:cut])
		_, _, err := AppendDecoded(nil, enc[:cut], []bool{false, false, false, false}, nil)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("cut at %d: AppendDecoded err %v, DecodeRecord err %v", cut, err, wantErr)
		}
		DecodedSize(enc[:cut], nil) // must not panic
	}
}

func TestPageInsertAndRead(t *testing.T) {
	p := NewPage(1, PageBTreeLeaf)
	rec := EncodeRecord(Record{sqlparse.IntValue(1), sqlparse.StrValue("alpha")})
	slot, err := p.InsertBytes(rec)
	if err != nil {
		t.Fatal(err)
	}
	got := p.SlotBytes(slot)
	if !bytes.Equal(got, rec) {
		t.Error("slot bytes differ from inserted record")
	}
	if p.ID() != 1 || p.Type() != PageBTreeLeaf {
		t.Errorf("header: id=%d type=%v", p.ID(), p.Type())
	}
}

func TestPageFillsUp(t *testing.T) {
	p := NewPage(1, PageBTreeLeaf)
	rec := EncodeRecord(Record{sqlparse.StrValue(string(make([]byte, 100)))})
	inserted := 0
	for {
		if _, err := p.InsertBytes(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
	}
	if inserted == 0 {
		t.Fatal("no records fit in an empty page")
	}
	// All inserted records are readable.
	for i := 0; i < inserted; i++ {
		if p.SlotBytes(i) == nil {
			t.Errorf("slot %d lost", i)
		}
	}
}

func TestPageDeleteLeavesResidue(t *testing.T) {
	p := NewPage(1, PageBTreeLeaf)
	marker := "FORENSIC-MARKER-STRING"
	rec := EncodeRecord(Record{sqlparse.StrValue(marker)})
	slot, err := p.InsertBytes(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteSlot(slot); err != nil {
		t.Fatal(err)
	}
	if p.SlotBytes(slot) != nil {
		t.Error("deleted slot still readable through the slot API")
	}
	// The raw page image must still contain the record bytes: this is
	// the disk-residue property the paper's §3 attacks rely on.
	if !bytes.Contains(p.Bytes(), []byte(marker)) {
		t.Error("deleted record bytes were scrubbed; expected residue")
	}
	p.Compact()
	if bytes.Contains(p.Bytes(), []byte(marker)) {
		t.Error("compaction left deleted-record residue")
	}
}

func TestPageUpdateInPlaceAndRelocate(t *testing.T) {
	p := NewPage(1, PageBTreeLeaf)
	slot, err := p.InsertBytes(EncodeRecord(Record{sqlparse.StrValue("long original value")}))
	if err != nil {
		t.Fatal(err)
	}
	short := EncodeRecord(Record{sqlparse.StrValue("tiny")})
	if err := p.UpdateSlot(slot, short); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.SlotBytes(slot), short) {
		t.Error("in-place update not visible")
	}
	long := EncodeRecord(Record{sqlparse.StrValue("a considerably longer replacement value")})
	if err := p.UpdateSlot(slot, long); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.SlotBytes(slot), long) {
		t.Error("relocating update not visible")
	}
}

func TestPageUpdateErrors(t *testing.T) {
	p := NewPage(1, PageBTreeLeaf)
	if err := p.UpdateSlot(0, []byte{1}); err == nil {
		t.Error("update of missing slot accepted")
	}
	slot, _ := p.InsertBytes(EncodeRecord(Record{sqlparse.IntValue(1)}))
	_ = p.DeleteSlot(slot)
	if err := p.UpdateSlot(slot, []byte{1}); err == nil {
		t.Error("update of deleted slot accepted")
	}
}

func TestPageLSN(t *testing.T) {
	p := NewPage(3, PageBTreeLeaf)
	p.SetLSN(0xDEADBEEF01)
	img := p.CloneBytes()
	q, err := LoadPage(img)
	if err != nil {
		t.Fatal(err)
	}
	if q.LSN() != 0xDEADBEEF01 {
		t.Errorf("LSN = %#x", q.LSN())
	}
}

func TestPageSiblingLink(t *testing.T) {
	p := NewPage(1, PageBTreeLeaf)
	if p.Next() != InvalidPage {
		t.Errorf("fresh page next = %d", p.Next())
	}
	p.SetNext(42)
	if p.Next() != 42 {
		t.Errorf("next = %d", p.Next())
	}
}

func TestLoadPageBadSize(t *testing.T) {
	if _, err := LoadPage(make([]byte, 100)); err == nil {
		t.Error("short page image accepted")
	}
}

// TestLoadPageRejectsForgedSlots: page images reach LoadPage from
// stolen or hand-assembled directories (Recover, cmd/forensic), so it
// refuses a slot directory SlotBytes would slice outside the page by —
// each forgery below panicked in SlotBytes before LoadPage checked. A
// deleted slot's offset is residue, not a claim, and loads as it is.
func TestLoadPageRejectsForgedSlots(t *testing.T) {
	forge := func(f func(p *Page)) []byte {
		p := NewPage(1, PageBTreeLeaf)
		for i := 0; i < 3; i++ {
			if _, err := p.InsertBytes(EncodeRecord(Record{sqlparse.IntValue(int64(i))})); err != nil {
				t.Fatal(err)
			}
		}
		_ = p.DeleteSlot(1)
		f(p)
		return p.CloneBytes()
	}
	dir := PageSize - 3*slotSize
	for name, f := range map[string]func(p *Page){
		"genuine":             func(*Page) {},
		"deleted slot's junk": func(p *Page) { p.setSlot(1, 0xFFFF, 0) },
	} {
		if _, err := LoadPage(forge(f)); err != nil {
			t.Errorf("%s page rejected: %v", name, err)
		}
	}
	for name, f := range map[string]func(p *Page){
		"length past the page end":  func(p *Page) { p.setSlot(0, pageHeaderSize, 0xFFFF) },
		"record over the directory": func(p *Page) { p.setSlot(2, dir-1, 2) },
		"record in the header":      func(p *Page) { p.setSlot(0, 3, 4) },
		"directory over the header": func(p *Page) { p.setSlotCount(0xFFFF) },
	} {
		if _, err := LoadPage(forge(f)); err == nil {
			t.Errorf("%s: forged page loaded", name)
		}
	}
}

// TestLoadPageRejectsForgedFreeOffset: the header's free-space offset is
// where the next InsertBytes writes. Each forgery below loaded before
// LoadPage checked it: an offset in the header had the next insert
// rewrite the page's id, type and slot count, and one below a live
// record's end had it overwrite that record. Offsets a page the engine
// wrote may carry — past a deleted tail record, or up to the directory
// of a full page — still load.
func TestLoadPageRejectsForgedFreeOffset(t *testing.T) {
	p := NewPage(3, PageBTreeLeaf)
	for i := 0; i < 3; i++ {
		if _, err := p.InsertBytes(EncodeRecord(Record{sqlparse.IntValue(int64(i)), sqlparse.StrValue("payload")})); err != nil {
			t.Fatal(err)
		}
	}
	off, length := p.slot(0)
	dir := p.slotPos(p.SlotCount() - 1)
	forge := func(free int, deleteTail bool) []byte {
		q, err := LoadPage(p.CloneBytes())
		if err != nil {
			t.Fatal(err)
		}
		if deleteTail {
			_ = q.DeleteSlot(2)
		}
		q.setFreeOffset(free)
		return q.CloneBytes()
	}
	for name, free := range map[string]int{
		"zero":                        0,
		"in the header":               pageHeaderSize - 1,
		"inside the first record":     off + length/2,
		"below the later records":     off + length,
		"one byte into the directory": dir + 1,
		"past the page end":           0xFFFF,
	} {
		if _, err := LoadPage(forge(free, false)); err == nil {
			t.Errorf("free offset %s (%d): forged page loaded", name, free)
		}
	}
	for name, free := range map[string]int{
		"genuine":                p.freeOffset(),
		"up to the directory":    dir,
		"below the deleted tail": off + 2*length,
	} {
		if _, err := LoadPage(forge(free, name == "below the deleted tail")); err != nil {
			t.Errorf("free offset %s (%d) rejected: %v", name, free, err)
		}
	}
}

func TestTablespaceAllocateGetRelease(t *testing.T) {
	ts := NewTablespace()
	p1 := ts.Allocate(PageBTreeLeaf)
	p2 := ts.Allocate(PageBTreeInternal)
	if p1.ID() == p2.ID() {
		t.Error("duplicate page ids")
	}
	got, err := ts.Get(p1.ID())
	if err != nil || got.ID() != p1.ID() {
		t.Fatalf("Get: %v", err)
	}
	if err := ts.Release(p1.ID()); err != nil {
		t.Fatal(err)
	}
	p3 := ts.Allocate(PageBTreeLeaf)
	if p3.ID() != p1.ID() {
		t.Errorf("freelist not recycled: got %d want %d", p3.ID(), p1.ID())
	}
}

func TestTablespaceReleaseInvalid(t *testing.T) {
	ts := NewTablespace()
	if err := ts.Release(0); err == nil {
		t.Error("releasing header page accepted")
	}
	if err := ts.Release(99); err == nil {
		t.Error("releasing unallocated page accepted")
	}
}

func TestTablespaceGetOutOfRange(t *testing.T) {
	ts := NewTablespace()
	if _, err := ts.Get(99); err == nil {
		t.Error("out-of-range Get accepted")
	}
}

func TestTablespaceSerializeRoundTrip(t *testing.T) {
	ts := NewTablespace()
	leaf := ts.Allocate(PageBTreeLeaf)
	if _, err := leaf.InsertBytes(EncodeRecord(Record{sqlparse.StrValue("persisted")})); err != nil {
		t.Fatal(err)
	}
	img := ts.Serialize()
	if len(img) != ts.SerializedSize() {
		t.Errorf("SerializedSize = %d, image = %d", ts.SerializedSize(), len(img))
	}
	ts2, err := LoadTablespace(img)
	if err != nil {
		t.Fatal(err)
	}
	if ts2.NumPages() != ts.NumPages() {
		t.Errorf("page count %d != %d", ts2.NumPages(), ts.NumPages())
	}
	p, err := ts2.Get(leaf.ID())
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := DecodeRecord(p.SlotBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	if rec[0].Str != "persisted" {
		t.Errorf("record = %v", rec)
	}
}

func TestLoadTablespaceRejectsBadImages(t *testing.T) {
	if _, err := LoadTablespace(nil); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := LoadTablespace(make([]byte, 8+PageSize/2)); err == nil {
		t.Error("misaligned image accepted")
	}
}

func TestLoadTablespaceRestoresFreelist(t *testing.T) {
	ts := NewTablespace()
	a := ts.Allocate(PageBTreeLeaf)
	_ = ts.Allocate(PageBTreeLeaf)
	if err := ts.Release(a.ID()); err != nil {
		t.Fatal(err)
	}
	ts2, err := LoadTablespace(ts.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	p := ts2.Allocate(PageBTreeLeaf)
	if p.ID() != a.ID() {
		t.Errorf("restored freelist not used: got page %d want %d", p.ID(), a.ID())
	}
}

func BenchmarkPageInsert(b *testing.B) {
	rec := EncodeRecord(Record{sqlparse.IntValue(7), sqlparse.StrValue("benchmark row")})
	b.ReportAllocs()
	p := NewPage(1, PageBTreeLeaf)
	for i := 0; i < b.N; i++ {
		if _, err := p.InsertBytes(rec); err == ErrPageFull {
			p.Format(1, PageBTreeLeaf)
		}
	}
}

func BenchmarkRecordEncode(b *testing.B) {
	r := Record{sqlparse.IntValue(7), sqlparse.StrValue("benchmark row value"), sqlparse.IntValue(12345)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeRecord(r)
	}
}

// TestCompareKeyMatchesValueCompare: comparing encoded keys in place
// orders them exactly as decoding and Value.Compare would, allocates
// nothing, and rejects what DecodeKey rejects.
func TestCompareKeyMatchesValueCompare(t *testing.T) {
	vals := []sqlparse.Value{
		sqlparse.IntValue(-1 << 63), sqlparse.IntValue(-1), sqlparse.IntValue(0), sqlparse.IntValue(1), sqlparse.IntValue(1<<63 - 1),
		sqlparse.StrValue(""), sqlparse.StrValue("a"), sqlparse.StrValue("a\x00"), sqlparse.StrValue("ab"), sqlparse.StrValue("b"),
		sqlparse.StrValue("\xff"), sqlparse.StrValue(strings.Repeat("k", 700) + "1"), sqlparse.StrValue(strings.Repeat("k", 700) + "2"),
	}
	enc := make([][]byte, len(vals))
	for i, v := range vals {
		enc[i] = EncodeRecord(Record{v, sqlparse.StrValue("rest"), sqlparse.IntValue(int64(i))})
	}
	for i, a := range vals {
		for j, b := range vals {
			want := a.Compare(b)
			if got, err := CompareKey(enc[i], b); err != nil || got != want {
				t.Errorf("CompareKey(%.8s, %.8s) = %d (%v), want %d", a, b, got, err, want)
			}
			if got, err := CompareKeys(enc[i], enc[j]); err != nil || got != want {
				t.Errorf("CompareKeys(%.8s, %.8s) = %d (%v), want %d", a, b, got, err, want)
			}
		}
	}
	long, probe := enc[len(enc)-1], vals[len(vals)-2]
	if n := testing.AllocsPerRun(100, func() {
		CompareKey(long, probe)
		CompareKeys(long, enc[0])
	}); n != 0 {
		t.Errorf("comparing keys allocates %v times", n)
	}
	for _, bad := range [][]byte{nil, {0}, {0, 0}, {0, 1}, {0, 1, tagInt, 1, 2}, {0, 1, tagText, 0, 0}, {0, 1, tagText, 0, 0, 0, 9, 'x'}, {0, 1, 0x7f}} {
		_, wantErr := DecodeKey(bad)
		_, err := CompareKey(bad, vals[0])
		_, err2 := CompareKeys(enc[0], bad)
		_, err3 := CompareKeys(bad, enc[0])
		if wantErr == nil || err == nil || err2 == nil || err3 == nil || err.Error() != wantErr.Error() {
			t.Errorf("% x: CompareKey %v, CompareKeys %v / %v, DecodeKey %v", bad, err, err2, err3, wantErr)
		}
	}
}

// TestKeyOrderHintIsNotAPageByte: the key index is one word beside the
// page image and nothing that copies a page carries it — not the page
// image, not the tablespace file, not a reload — and Format drops it.
func TestKeyOrderHintIsNotAPageByte(t *testing.T) {
	if extra := unsafe.Sizeof(Page{}) - PageSize; extra > unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("Page carries %d bytes beside its image, want one word at most", extra)
	}
	ts := NewTablespace()
	p := ts.Allocate(PageBTreeLeaf)
	for _, k := range []int64{3, 1, 2} {
		if _, err := p.InsertBytes(EncodeRecord(Record{sqlparse.IntValue(k)})); err != nil {
			t.Fatal(err)
		}
	}
	page, file := p.CloneBytes(), ts.Serialize()
	if ix, err := p.Keys(); err != nil || !slices.Equal(ix, []uint16{1, 2, 0}) {
		t.Fatalf("Keys() = %v, %v; want [1 2 0]", ix, err)
	}
	if !bytes.Equal(p.CloneBytes(), page) || !bytes.Equal(ts.Serialize(), file) {
		t.Fatal("deriving the key index changed a page byte")
	}
	loaded, err := LoadTablespace(file)
	if err != nil {
		t.Fatal(err)
	}
	if q, err := loaded.Get(p.ID()); err != nil || q.keys.Load() != nil {
		t.Fatalf("a reloaded page carries a key index (%v)", err)
	}
	p.Format(p.ID(), PageBTreeLeaf)
	if p.keys.Load() != nil {
		t.Fatal("Format kept the key index of the page it erased")
	}
}
