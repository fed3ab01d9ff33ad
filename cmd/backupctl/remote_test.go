package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

// TestTransportServePush runs the remote backup path end to end over
// real TCP on the loopback interface: a serve process receives both a
// logical and an image push, and the stream files it writes verify
// and restore exactly like locally-dumped ones.
func TestTransportServePush(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	clone := filepath.Join(dir, "clone.img")
	hostFile := filepath.Join(dir, "payload.txt")
	payload := []byte("remote backup payload\n")
	if err := os.WriteFile(hostFile, payload, 0644); err != nil {
		t.Fatal(err)
	}

	do := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}

	do("-vol", vol, "mkfs", "-blocks", "4096")
	do("-vol", vol, "fill", "-mb", "2")
	do("-vol", vol, "put", hostFile, "/docs/payload.txt")

	// Logical push: the received stream verifies against the live tree
	// and restores a deleted file.
	remoteDump := filepath.Join(dir, "remote.dump")
	addr, done := serveOnce(t, remoteDump)
	do("-vol", vol, "push", "-to", addr)
	waitServe(t, done)
	do("-vol", vol, "verify", "-i", remoteDump)
	do("-vol", vol, "rm", "/docs/payload.txt")
	do("-vol", vol, "restore", "-i", remoteDump, "-file", "docs/payload.txt")
	do("-vol", vol, "cat", "/docs/payload.txt")

	// The server catalogs the received stream from the wire Hello and
	// the stream's own header: engine, fsid, level and dump date.
	logSets := volSets(t, remoteDump)
	if len(logSets) != 1 {
		t.Fatalf("server catalog has %d sets, want 1", len(logSets))
	}

	// Push records dump dates like a local dump would: in the client's
	// catalog, without media, since the stream is on the tape host.
	if sets := volSets(t, vol); len(sets) != 1 || sets[0].Snap != "backupctl.push" ||
		sets[0].Level != 0 || sets[0].Date != logSets[0].Date || len(sets[0].Media) != 0 {
		t.Fatalf("push did not journal its dump date in the client catalog: %+v", sets)
	}
	if logSets[0].Engine != catalog.Logical || logSets[0].FSID != vol ||
		logSets[0].Level != 0 || logSets[0].Date == 0 {
		t.Fatalf("server-side set %+v", logSets[0])
	}
	if len(logSets[0].Media) != 1 || logSets[0].Media[0].Volume != remoteDump {
		t.Fatalf("server-side media %+v", logSets[0].Media)
	}

	// Image push: the received stream verifies offline and restores to
	// a byte-equivalent clone volume.
	remoteImg := filepath.Join(dir, "remote.stream")
	addr, done = serveOnce(t, remoteImg)
	do("-vol", vol, "push", "-to", addr, "-kind", "image")
	waitServe(t, done)
	do("imageverify", "-i", remoteImg)
	do("-vol", clone, "imagerestore", "-i", remoteImg)
	do("-vol", clone, "fsck")
	do("-vol", clone, "cat", "/docs/payload.txt")

	imgSets := volSets(t, remoteImg)
	if len(imgSets) != 1 || imgSets[0].Engine != catalog.Image ||
		imgSets[0].Gen == 0 || imgSets[0].NBlocks == 0 {
		t.Fatalf("server-side image sets %+v", imgSets)
	}

	// Error paths.
	if err := run([]string{"-vol", vol, "push"}); err == nil {
		t.Fatal("push without -to succeeded")
	}
	if err := run([]string{"-vol", vol, "push", "-to", addr, "-kind", "nope"}); err == nil {
		t.Fatal("push with bad -kind succeeded")
	}
	if err := run([]string{"serve"}); err == nil {
		t.Fatal("serve without -o succeeded")
	}
}

// serveOnce runs serve in-process on an ephemeral port with -once
// semantics: done receives serveOn's result after one clean session.
func serveOnce(t *testing.T, out string) (addr string, done chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan error, 1)
	go func() {
		defer l.Close()
		done <- serveOn(l, out, "", true, 5*time.Second, nil, nil)
	}()
	return l.Addr().String(), done
}

func waitServe(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not finish")
	}
}

// stdoutOf runs backupctl with args and returns what it printed.
func stdoutOf(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = run(args)
	os.Stdout = stdout
	w.Close()
	return <-out, err
}

// pushRig is a volume with one file and a served push target.
func pushRig(t *testing.T) (dir, vol string, do func(args ...string), push func(level string)) {
	t.Helper()
	dir = t.TempDir()
	vol = filepath.Join(dir, "home.img")
	do = func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	pushes := 0
	push = func(level string) {
		t.Helper()
		pushes++
		addr, done := serveOnce(t, filepath.Join(dir, fmt.Sprintf("push%d.dump", pushes)))
		do("-vol", vol, "push", "-to", addr, "-level", level)
		waitServe(t, done)
	}
	do("-vol", vol, "mkfs", "-blocks", "2048")
	putFile(t, do, vol, "/docs/a.txt", "alpha")
	return dir, vol, do, push
}

func putFile(t *testing.T, do func(args ...string), vol, fsPath, content string) {
	t.Helper()
	host := filepath.Join(t.TempDir(), "stage.txt")
	if err := os.WriteFile(host, []byte(content), 0644); err != nil {
		t.Fatal(err)
	}
	do("-vol", vol, "put", host, fsPath)
}

// TestTransportPushThenLocalIncremental: a local level 1 after a
// level-0 push bases on the push, so the catalog plans the chain
// through the pushed set. Its stream is on the tape host, so recover
// refuses the chain, naming the set, instead of restoring the level 1
// onto a tree without its base; scrub lists the set as skipped.
func TestTransportPushThenLocalIncremental(t *testing.T) {
	dir, vol, do, push := pushRig(t)
	push("0")
	putFile(t, do, vol, "/docs/b.txt", "beta")
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "d1"), "-level", "1")

	do("-vol", vol, "plan")
	plan, err := volCatalog(t, vol).Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: vol})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("plan has %d steps, want 2:\n%s", len(plan.Steps), plan)
	}
	pushed := plan.Steps[0]
	if pushed.Snap != "backupctl.push" || pushed.Level != 0 || len(pushed.Media) != 0 ||
		plan.Steps[1].BaseDate != pushed.Date {
		t.Fatalf("plan does not start at the pushed set:\n%s", plan)
	}

	out, err := stdoutOf(t, "-vol", vol, "recover")
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("set %d was pushed", pushed.ID)) {
		t.Fatalf("recover through pushed set %d: %v", pushed.ID, err)
	}
	if strings.Contains(out, "restored") {
		t.Fatalf("recover restored streams before refusing:\n%s", out)
	}

	out, err = stdoutOf(t, "-vol", vol, "scrub")
	if err != nil {
		t.Fatalf("scrub: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("set %-3d pushed (skipped)", pushed.ID); !strings.Contains(out, want) {
		t.Fatalf("scrub output lacks %q:\n%s", want, out)
	}
}

// TestTransportPushBetweenLocalDumps: a push is a dump-date record
// like a local dump, so a level 2 after a level-1 push bases on the
// push, not on the level 0 before it.
func TestTransportPushBetweenLocalDumps(t *testing.T) {
	dir, vol, do, push := pushRig(t)
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "d0"))
	putFile(t, do, vol, "/docs/b.txt", "beta")
	push("1")
	putFile(t, do, vol, "/docs/c.txt", "gamma")
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "d2"), "-level", "2")

	sets := volSets(t, vol)
	if len(sets) != 3 || sets[1].Snap != "backupctl.push" || sets[1].Level != 1 {
		t.Fatalf("catalog sets %+v, want level 0, pushed level 1, level 2", sets)
	}
	if sets[1].BaseDate != sets[0].Date || sets[2].BaseDate != sets[1].Date {
		t.Fatalf("base dates %d, %d; want %d (level 0), %d (push)",
			sets[1].BaseDate, sets[2].BaseDate, sets[0].Date, sets[1].Date)
	}
}

// TestTransportPushDeadReceiver points a push at a listener that
// accepts and then black-holes every byte: the session must declare
// the peer dead within its configured deadline and surface a typed
// error instead of hanging.
func TestTransportPushDeadReceiver(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	if err := run([]string{"-vol", vol, "mkfs", "-blocks", "2048"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-vol", vol, "fill", "-mb", "1"}); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Read and discard so the client's sends succeed, but never
			// answer — the hello itself goes unacknowledged.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	start := time.Now()
	err = run([]string{"-vol", vol, "push", "-to", l.Addr().String(),
		"-dead", "500ms", "-max-resumes", "0"})
	if err == nil {
		t.Fatal("push to a mute receiver succeeded")
	}
	if elapsed := time.Since(start); elapsed > 25*time.Second {
		t.Fatalf("dead receiver took %v to surface", elapsed)
	}
	t.Logf("push failed as expected after %v: %v", time.Since(start), err)
}
