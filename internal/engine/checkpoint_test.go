package engine

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
)

// overflowTablespace is the 8-byte tablespace image that declares 2^52
// pages: 8 + 2^52*4096 wraps to 8, so the old length check passed and
// make([]*Page, 0, 2^52) panicked. A frame CRC does not stop it — CRCs
// catch bit rot, not someone who assembles the directory.
func overflowTablespace() []byte {
	return binary.BigEndian.AppendUint64(nil, 1<<52)
}

// frameCheckpoint wraps arbitrary meta and tablespace bytes in valid
// frames: the checkpoint an attacker builds, as opposed to one a crash
// damages.
func frameCheckpoint(meta, ts []byte) []byte {
	return storage.AppendFrame(storage.AppendFrame(nil, meta), ts)
}

// recoverCheckpoint boots a directory holding only img as its
// checkpoint.
func recoverCheckpoint(t testing.TB, img []byte) (*Engine, error) {
	t.Helper()
	mem := vfs.NewMemFS()
	if err := vfs.WriteFileAtomic(mem, FileCheckpoint, img); err != nil {
		t.Fatal(err)
	}
	e, _, err := Recover(mem, Defaults())
	return e, err
}

// TestCraftedPageCountIsCleanError drives the overflow image through
// every layer that parses it. Each must return an error; before the
// count was bounded by the image length, each panicked.
func TestCraftedPageCountIsCleanError(t *testing.T) {
	ts := overflowTablespace()
	if _, err := storage.LoadTablespace(ts); err == nil {
		t.Error("LoadTablespace accepted 2^52 pages in 8 bytes")
	}
	img := frameCheckpoint([]byte(`{"Tables":[{"ID":1,"Name":"t","Root":1}]}`), ts)
	if _, _, err := DecodeCheckpoint(img); err == nil {
		t.Error("DecodeCheckpoint accepted the image")
	}
	if _, err := recoverCheckpoint(t, img); err == nil {
		t.Error("Recover booted the image")
	}
}

// forgePage1 returns a copy of tablespace image ts with the u16 at byte
// at of page 1 set to v. Framed, the result is CRC-valid: what a
// checkpoint's pages hold is the forger's choice.
func forgePage1(ts []byte, at int, v uint16) []byte {
	out := append([]byte(nil), ts...)
	binary.BigEndian.PutUint16(out[8+storage.PageSize+at:], v)
	return out
}

// forgedSlotLength and forgedSlotCount forge page 1's slot directory:
// slot 0 claims 0xFFFF bytes, or the page claims 0xFFFF slots. Either
// made SlotBytes slice outside the page — inside Recover
// (loadCatalog's Tree.Len) and cmd/forensic alike — until LoadPage
// checked slot directories.
func forgedSlotLength(ts []byte) []byte { return forgePage1(ts, storage.PageSize-2, 0xFFFF) }
func forgedSlotCount(ts []byte) []byte  { return forgePage1(ts, 5, 0xFFFF) }

// TestForgedSlotDirectoryIsCleanError boots checkpoints whose table
// root carries a forged slot directory: Recover must return an error.
func TestForgedSlotDirectoryIsCleanError(t *testing.T) {
	img, err := seedDurable(t, vfs.NewMemFS()).CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	meta, ts, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tables[0].Root != 1 {
		t.Fatalf("accounts root is page %d; the forgeries patch page 1", meta.Tables[0].Root)
	}
	for name, forge := range map[string]func([]byte) []byte{"slot length": forgedSlotLength, "slot count": forgedSlotCount} {
		forged, err := EncodeCheckpoint(meta, forge(ts))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recoverCheckpoint(t, forged); err == nil {
			t.Errorf("forged %s: Recover booted the checkpoint", name)
		}
	}
}

// TestForgedPrimaryKeyColumnIsRefused: a checkpoint naming a primary
// key column other than 0 — which no engine writes, and every tree, log
// image and version chain would misread — is refused with an error
// naming the table, while the same checkpoint with PK 0 boots.
func TestForgedPrimaryKeyColumnIsRefused(t *testing.T) {
	img, err := seedDurable(t, vfs.NewMemFS()).CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	meta, ts, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tables[0].PK != 0 {
		t.Fatalf("the engine wrote PK %d", meta.Tables[0].PK)
	}
	meta.Tables[0].PK = 1
	forged, err := EncodeCheckpoint(meta, ts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recoverCheckpoint(t, forged); err == nil || !strings.Contains(err.Error(), meta.Tables[0].Name) {
		t.Errorf("Recover on a checkpoint with PK 1: %v; want an error naming %q", err, meta.Tables[0].Name)
	}
	if _, err := recoverCheckpoint(t, img); err != nil {
		t.Errorf("Recover on the unforged checkpoint: %v", err)
	}
}

// forgePage1Image returns a copy of tablespace image ts whose page 1
// is forge's edit of it.
func forgePage1Image(t *testing.T, ts []byte, forge func(p *storage.Page)) []byte {
	t.Helper()
	out := append([]byte(nil), ts...)
	page := out[8+storage.PageSize : 8+2*storage.PageSize]
	p, err := storage.LoadPage(page)
	if err != nil {
		t.Fatal(err)
	}
	forge(p)
	copy(page, p.Bytes())
	return out
}

// TestForgedTreeLoopIsCleanError boots checkpoints whose table root
// links back to itself: a leaf whose sibling is itself, and an internal
// node whose one child is itself. Recover counts every table's rows
// while loading, so the first looped forever walking the leaf chain and
// the second descending; now the walk and the descent stop after as
// many pages as the tablespace holds, and Recover returns an error
// naming the page.
func TestForgedTreeLoopIsCleanError(t *testing.T) {
	img, err := seedDurable(t, vfs.NewMemFS()).CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	meta, ts, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tables[0].Root != 1 {
		t.Fatalf("accounts root is page %d; the forgeries patch page 1", meta.Tables[0].Root)
	}
	for name, forge := range map[string]func(p *storage.Page){
		"leaf is its own sibling": func(p *storage.Page) { p.SetNext(1) },
		"node is its own child": func(p *storage.Page) {
			p.Format(1, storage.PageBTreeInternal)
			if _, err := p.InsertBytes(storage.EncodeRecord(storage.Record{sqlparse.IntValue(0), sqlparse.IntValue(1)})); err != nil {
				t.Fatal(err)
			}
		},
	} {
		forged, err := EncodeCheckpoint(meta, forgePage1Image(t, ts, forge))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := recoverCheckpoint(t, forged)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "page 1:") || !strings.Contains(err.Error(), "links loop") {
				t.Errorf("%s: Recover = %v, want an error naming page 1's loop", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Recover still running after 30s", name)
		}
	}
}

// TestForgedFreeOffsetIsCleanError boots checkpoints whose page 1 — the
// accounts root leaf, its first record at the header's end — carries a
// forged free-space offset (header bytes 7–8): zero, inside that
// record, and past the slot directory. Each used to load, and with the
// first two the next insert overwrote the page header or the record;
// now Recover refuses the page with an error naming it.
func TestForgedFreeOffsetIsCleanError(t *testing.T) {
	img, err := seedDurable(t, vfs.NewMemFS()).CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	meta, ts, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	for name, free := range map[string]uint16{
		"zero":                    0,
		"inside the first record": 22,
		"past the slot directory": storage.PageSize - 1,
	} {
		forged, err := EncodeCheckpoint(meta, forgePage1Image(t, ts, func(p *storage.Page) {
			if p.SlotBytes(0) == nil {
				t.Fatal("page 1 slot 0 is not live; the forgery needs its record")
			}
			binary.BigEndian.PutUint16(p.Bytes()[7:], free)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recoverCheckpoint(t, forged); err == nil || !strings.Contains(err.Error(), "storage: page 1: ") {
			t.Errorf("free offset %s (%d): Recover = %v, want page 1 refused", name, free, err)
		}
	}
}

// TestCheckpointCodecRoundTrip: Decode inverts Encode, and the
// tablespace's pages sit on PageSize file offsets (E17 diffs them by
// page).
func TestCheckpointCodecRoundTrip(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	img, err := e.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	meta, ts, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ts, e.Tablespace().Serialize()) {
		t.Error("tablespace image changed in the round trip")
	}
	if (len(img)-len(ts)+8)%storage.PageSize != 0 {
		t.Errorf("first page at file offset %d, not page-aligned", len(img)-len(ts)+8)
	}
	again, err := EncodeCheckpoint(meta, ts)
	if err != nil || !bytes.Equal(again, img) {
		t.Errorf("re-encoding the decoded checkpoint changed it (err %v)", err)
	}
	if len(meta.Tables) != 1 || meta.Tables[0].Name != "accounts" || meta.LSN == 0 {
		t.Errorf("meta = %+v", meta)
	}
	if _, _, err := DecodeCheckpoint(img[:len(img)-1]); err == nil {
		t.Error("torn checkpoint accepted")
	}
	// JSON that fails half-way through has already filled fields in.
	m, _, err := DecodeCheckpoint(frameCheckpoint([]byte(`{"LSN":7,"Tables":[{"Name":"t"}],"Txn":"x"}`), ts))
	if err == nil || !reflect.DeepEqual(m, CheckpointMeta{}) {
		t.Errorf("rejected checkpoint returned catalog %+v (err %v)", m, err)
	}
}

// FuzzReadCheckpoint: the checkpoint is the one file whose damage is
// fatal to recovery, and with cmd/forensic it is parsed from
// directories an adversary may have assembled. Whatever the bytes —
// raw, or arbitrary catalog JSON and tablespace bytes inside frames
// whose CRCs are right — DecodeCheckpoint and LoadTablespace return an
// error or a tablespace of the declared pages; they never panic, and
// never allocate beyond what the input's own length accounts for (the
// overflow seed would exhaust memory, not just fail, if they did). On
// every page that loads, SlotBytes stays inside the page for every
// slot (the forged-slot seeds panicked there before LoadPage checked).
//
// Sibling links and child ids are not checked at load: a walk or
// descent that loops is stopped by the tree's page-count bound
// (TestForgedTreeLoopIsCleanError), and a structural check of a forged
// checkpoint's tree links is ROADMAP's next hardening item.
func FuzzReadCheckpoint(f *testing.F) {
	mem := vfs.NewMemFS()
	e := seedDurable(f, mem)
	mustExec(f, e.Connect("app"), "CREATE INDEX by_owner ON accounts (owner)")
	real, err := mem.ReadFile(FileCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	meta, n, err := storage.ReadFrame(real)
	if err != nil {
		f.Fatal(err)
	}
	ts, _, err := storage.ReadFrame(real[n:])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real, []byte(nil), false)
	f.Add(meta, ts, true)
	f.Add(meta, overflowTablespace(), true)
	f.Add([]byte(`{"Tables":[{"ID":1,"Name":"t","Root":9},{"ID":1,"Name":"t"}]}`), ts, true)
	f.Add([]byte(`{`), []byte{0, 0, 0, 0, 0, 0, 0, 0}, true)
	f.Add(meta, forgedSlotLength(ts), true)
	f.Add(meta, forgedSlotCount(ts), true)
	f.Fuzz(func(t *testing.T, a, b []byte, framed bool) {
		img := a
		if framed {
			img = frameCheckpoint(a, b)
		}
		_, ts, err := DecodeCheckpoint(img)
		if err != nil {
			return
		}
		loaded, err := storage.LoadTablespace(ts)
		if err != nil {
			return
		}
		if 8+loaded.NumPages()*storage.PageSize != len(ts) && len(ts) != 8 {
			t.Fatalf("%d bytes loaded as %d pages", len(ts), loaded.NumPages())
		}
		for id := 0; id < loaded.NumPages(); id++ {
			p, err := loaded.Get(storage.PageID(id))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.SlotCount(); i++ {
				p.SlotBytes(i)
			}
		}
	})
}
