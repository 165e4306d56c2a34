// Command forensic analyzes a stolen data directory — the files a
// disk-theft attacker actually holds: any directory a `snapdbd
// -datadir` was running on (killed, crashed or shut down) or that
// `snapdb -dump` wrote — and prints everything §3 of the paper says
// such a directory reveals — core.Analyze's report, then the whole
// reconstructed write history, dated by the LSN↔timestamp correlation.
// It only reads: torn log tails are reported and left where they are.
//
// A directory written under `snapdbd -encrypt` is read with the key in
// SNAPDB_ENCRYPTION_KEY (the mode is worked out from the directory:
// "<name>.iv" sidecars mean fresh-IV). Without the key the thief gets
// what at-rest encryption never hides — file names and sizes — and
// forensic says so and exits 1.
//
// Usage:
//
//	forensic -dir /path/to/stolen/datadir [-limit 20]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snapdb/internal/core"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
	"snapdb/internal/vfs"
)

func main() {
	dir := flag.String("dir", "", "stolen data directory (required)")
	limit := flag.Int("limit", 20, "max reconstructed writes to print")
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := realMain(os.Stdout, *dir, *limit); err != nil {
		fmt.Fprintln(os.Stderr, "forensic:", err)
		os.Exit(1)
	}
}

func realMain(out io.Writer, dir string, limit int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	freshIV := false
	for _, ent := range entries {
		freshIV = freshIV || strings.HasSuffix(ent.Name(), vfs.SidecarSuffix)
	}
	key, haveKey, err := vfs.EncryptionKeyFromEnv()
	if err != nil {
		return err
	}
	var fs vfs.FS
	if fs, err = vfs.NewOSFS(dir); err != nil {
		return err
	}
	if haveKey {
		if fs, err = vfs.NewCryptFS(fs, key, !freshIV); err != nil {
			return err
		}
	}
	snap, err := snapshot.ReadDirFS(fs)
	if err != nil && !haveKey {
		// The keyless thief: E17's size channel is all there is.
		fmt.Fprintf(out, "%s does not read as a plaintext data directory; what it gives away without a key:\n", dir)
		for _, ent := range entries {
			if info, ierr := ent.Info(); ierr == nil && !ent.IsDir() {
				fmt.Fprintf(out, "  %-24s %d bytes\n", ent.Name(), info.Size())
			}
		}
		return fmt.Errorf("%s looks encrypted at rest: set %s to read it (as plaintext: %v)", dir, vfs.EncryptionKeyEnv, err)
	}
	if err != nil {
		return fmt.Errorf("%w (wrong %s?)", err, vfs.EncryptionKeyEnv)
	}
	rep, err := core.Analyze(snap)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "forensic analysis of %s: %d tables in the checkpoint's catalog\n", dir, len(snap.Disk.Catalog))
	for _, name := range []string{engine.FileRedo, engine.FileUndo, engine.FileBinlog} {
		if t, torn := snap.Disk.Truncated[name]; torn {
			fmt.Fprintf(out, "%s: valid prefix ends at byte %d (%s); the tail is still in the file\n", name, t.TruncatedAt, t.Reason)
		}
	}
	rep.Fprint(out)
	fmt.Fprintln(out, "\nreconstructed write history (oldest first):")
	for i, w := range rep.Writes {
		if i >= limit {
			fmt.Fprintf(out, "  ... %d more\n", len(rep.Writes)-limit)
			break
		}
		fmt.Fprintf(out, "  lsn=%-8d t≈%-12d %s\n", w.LSN, w.Timestamp, w.SQL)
	}
	return nil
}
