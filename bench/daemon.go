package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything the benchmark builds or writes inside the
// checkout (the driver points CARGO_TARGET_DIR at the same name).
const buildDir = ".bench_build"

// encryptionKeyHex is the fixed at-rest key write_crypt hands the
// daemon: the benchmark prices encryption, it keeps no secrets.
const encryptionKeyHex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// buildDaemon compiles cmd/snapdbd into buildDir and returns the
// binary's path. It must run from the module root; the go tool's own
// cache makes the second call cheap.
func buildDaemon() (string, error) {
	if _, err := os.Stat("cmd/snapdbd"); err != nil {
		return "", fmt.Errorf("bench: run from the repository root (cmd/snapdbd not found): %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "snapdbd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/snapdbd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/snapdbd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spawned snapdbd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	drain  sync.WaitGroup
}

// startDaemon launches snapdbd with its default flags plus a loopback
// port of the kernel's choosing and the datadir, and waits for its
// "listening on" line, from which the port is parsed.
func startDaemon(bin, datadir string, encrypt bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-datadir", datadir}
	if encrypt {
		args = append(args, "-encrypt")
	}
	d := &daemon{cmd: exec.Command(bin, args...)}
	d.cmd.Env = append(os.Environ(), "SNAPDB_ENCRYPTION_KEY="+encryptionKeyHex)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start snapdbd: %w", err)
	}
	trackDaemon(d, true)
	r := bufio.NewReader(stdout)
	const marker = "snapdbd listening on "
	for {
		line, err := r.ReadString('\n')
		if i := strings.Index(line, marker); i >= 0 {
			d.addr = strings.Fields(line[i+len(marker):])[0]
			break
		}
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("bench: snapdbd exited before listening: %v\n%s", err, d.stderr.String())
		}
	}
	// Keep the pipe drained so the daemon never blocks on a log line.
	d.drain.Add(1)
	go func() {
		defer d.drain.Done()
		_, _ = io.Copy(io.Discard, r)
	}()
	return d, nil
}

// kill sends SIGKILL and waits until the process is gone. SIGKILL keeps
// the operating system's cache, so what follows is process-crash
// recovery; power loss is the MemFS.Crash torture tests' subject.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	d.drain.Wait()
	_ = d.cmd.Wait()
	trackDaemon(d, false)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procCPU returns the user+system CPU time a process has used so far,
// from /proc/<pid>/stat (fields 14 and 15, in clock ticks; Linux's
// USER_HZ is 100 on every platform Go supports).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad /proc stat times")
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc status")
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// plaintextNeedles are row-value prefixes long enough not to turn up in
// ciphertext by chance: a 4-byte needle such as "upd-" is expected once
// in every 4 GiB of random bytes, which a few dozen write_crypt runs
// produce; these 7-byte ones once in 2^56.
var plaintextNeedles = [][]byte{
	[]byte("upd-0-0"), []byte("upd-1-0"), // updValue: connection, then a zero-padded sequence
	[]byte("-row-00"), []byte("-row-01"), []byte("-row-02"), []byte("-row-03"), // loadValue: table index
}

// plaintextMarkers counts files under dir that contain row text in the
// clear. A plain datadir is full of it (which proves the search works);
// an encrypted one must have none.
func plaintextMarkers(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	hits := 0
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		for _, needle := range plaintextNeedles {
			if bytes.Contains(b, needle) {
				hits++
				break
			}
		}
	}
	return hits, nil
}

// datadirRoot picks where datadirs live. /dev/shm when writable: on the
// sandbox's virtio disk one fsync costs 0.25 ms, the engine issues two
// per logged row, and identical write runs swung ±13 % — wall clock
// would measure the disk, not the program. The checkout otherwise.
func datadirRoot(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	if f, err := os.CreateTemp("/dev/shm", "snapbench-probe-*"); err == nil {
		_ = f.Close()
		_ = os.Remove(f.Name())
		return "/dev/shm"
	}
	return buildDir
}

// fsType names the filesystem a path is on, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
