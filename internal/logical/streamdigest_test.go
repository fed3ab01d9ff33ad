package logical

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dumpfmt"
	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// The pinned stream digests are the byte-identity reference for the
// dump engine: SHA-256 of every stream written for a fixed seeded
// filesystem. Any change to the bytes a dump puts on tape — record
// boundaries, header fields, map contents, hole maps, checkpoint
// positions — changes a digest. Regenerate with
//
//	go test ./internal/logical/ -run TestPinnedStreamDigests -v
//
// and only when a format change is intended.
var pinnedStreamDigests = map[string]string{
	"level0":           "ff7ae16d169d88412806720844393f974fdf3744f3fac60e65fe10a1f78b4bf2",
	"level0.fileindex": "7882a45c34ff04415616ff5596535388db63d67b4d71581d51608e504b6fb681",
	"level1":           "17e431ef68d18fc3c7b6afb97dd3c9fed489573411f1aad961784361dd2dae12",
	"checkpoint":       "e0601ccc4a0442b342e8509b633b399563f674d54a09ac78d28f3bd95467aa55",
	"subtree-exclude":  "a8ede709af8aaeb2e8a0895880673f09d56b7d7dedc46ccd100a83c39bbc12c8",
	"latent-sector":    "6d635f7495742ba4e6b5e90b392840d306bc24d0221a98dcfd837e231be2c0a4",
	"shards4.0":        "7d945cd941b65b9e5c18392daf18a866ceef15a7d65998f32ce663d39dd42f2a",
	"shards4.1":        "3f330ae93e2020861e5448525189ed2426c5cd96df2030259030a9a679e70fec",
	"shards4.2":        "214962f230d3efb9fc5867fede274fb9b70b6b681bdab82f03fec4c71470e720",
	"shards4.3":        "cff590ad801d45806fe92b8fc2d52b7181189c1c057c6b1e4093c39fa8ba848d",
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// pinnedFS builds the seeded source filesystem on a fault-injectable
// device, so one case can plant a latent sector error under a file.
func pinnedFS(t *testing.T) (*wafl.FS, *storage.FaultDevice, []string) {
	t.Helper()
	fd := storage.NewFaultDevice(storage.NewMemDevice(16384))
	fs, err := wafl.Mkfs(ctx, fd, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 1999, Files: 48, DirFanout: 5, MeanFileSize: 24 << 10,
		Symlinks: 3, Hardlinks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s0"); err != nil {
		t.Fatal(err)
	}
	return fs, fd, paths
}

func TestPinnedStreamDigests(t *testing.T) {
	fs, fd, paths := pinnedFS(t)
	sv, _ := fs.SnapshotView("s0")
	got := map[string]string{}

	one := func(name string, o DumpOptions) *DumpStats {
		t.Helper()
		sink := &memSink{}
		o.Sink = sink
		if o.Label == "" {
			o.Label = "pin"
		}
		stats, err := Dump(ctx, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = sha(sink.bytes())
		return stats
	}

	dates := NewDumpDates()
	var index strings.Builder
	one("level0", DumpOptions{
		View: sv, Level: 0, Dates: dates, FSID: "pin", ReadAhead: 8,
		FileIndex: func(path string, ino wafl.Inum, unit int64) {
			fmt.Fprintf(&index, "%s %d %d\n", path, ino, unit)
		},
	})
	got["level0.fileindex"] = sha([]byte(index.String()))

	// Churn some files for the level-1 incremental.
	for i, p := range paths {
		if i%5 == 0 {
			if _, err := fs.WriteFile(ctx, p, []byte(fmt.Sprintf("changed %d", i)), 0644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := fs.WriteFile(ctx, "/new/late.txt", []byte("written after the full"), 0644); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	sv1, _ := fs.SnapshotView("s1")
	one("level1", DumpOptions{View: sv1, Level: 1, Dates: dates, FSID: "pin", ReadAhead: 8})

	one("checkpoint", DumpOptions{View: sv, ReadAhead: 8, CheckpointEvery: 3})

	sub := paths[len(paths)/2]
	sub = sub[:strings.LastIndex(sub, "/")]
	if sub == "" {
		t.Fatal("pinned subtree is the root")
	}
	one("subtree-exclude", DumpOptions{
		View: sv, ReadAhead: 8, Subtree: sub,
		Exclude: func(name string) bool { return strings.HasSuffix(name, "1") },
	})

	// Latent sector error under one file block: the dump hole-maps it.
	// Remount with a small cache so the dump's reads reach the device.
	mfs, err := wafl.Mount(ctx, fd, nil, wafl.Options{CacheBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	msv, err := mfs.SnapshotView("s0")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := msv.Namei(ctx, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	pbn, err := msv.BlockAt(ctx, victim, 0)
	if err != nil || pbn == 0 {
		t.Fatalf("victim block: pbn %d, %v", pbn, err)
	}
	fd.FailRead(int(pbn), storage.ErrLatentSector)
	stats := one("latent-sector", DumpOptions{View: msv, ReadAhead: 8})
	if len(stats.Damaged) != 1 || stats.Damaged[0].Ino != victim || stats.Damaged[0].Fbn != 0 {
		t.Fatalf("latent-sector damage report = %+v, want ino %d fbn 0", stats.Damaged, victim)
	}
	fd.ClearFaults()

	// Four shards from one call: every reader count writes the same
	// per-shard streams.
	for _, readers := range []int{1, 3} {
		streams := make([]*memSink, 4)
		sinks := make([]dumpfmt.Sink, 4)
		for k := range sinks {
			streams[k] = &memSink{}
			sinks[k] = streams[k]
		}
		if _, err := Dump(ctx, DumpOptions{
			View: sv, Sinks: sinks, Label: "pin", ReadAhead: 8,
			Readers: readers, CheckpointEvery: 3,
		}); err != nil {
			t.Fatalf("shards4 readers %d: %v", readers, err)
		}
		for k, s := range streams {
			name := fmt.Sprintf("shards4.%d", k)
			d := sha(s.bytes())
			if prev, ok := got[name]; ok && prev != d {
				t.Errorf("%s: readers %d digest %s differs from readers 1 (%s)", name, readers, d, prev)
			}
			got[name] = d
		}
	}

	for name, want := range pinnedStreamDigests {
		if got[name] != want {
			t.Errorf("%s: stream digest %s, pinned %s", name, got[name], want)
		}
	}
	if t.Failed() {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Logf("%q: %q,", name, got[name])
		}
	}
}
