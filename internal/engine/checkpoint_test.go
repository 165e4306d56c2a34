package engine

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

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
// whose CRCs are right — DecodeCheckpoint returns an error or an image
// LoadTablespace loads; it never panics, and never allocates beyond
// what the input's own length accounts for (the overflow seed would
// exhaust memory, not just fail, if it did).
//
// What the pages *hold* is not checked here or anywhere: booting a
// CRC-valid checkpoint whose slot directories or sibling links were
// forged is ROADMAP's next hardening item.
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
			t.Fatalf("decoded a tablespace image that does not load: %v", err)
		}
		if 8+loaded.NumPages()*storage.PageSize != len(ts) && len(ts) != 8 {
			t.Fatalf("%d bytes loaded as %d pages", len(ts), loaded.NumPages())
		}
	})
}
