package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

var ctx = context.Background()

func newTestFiler(t *testing.T, simulate bool, drives int) *Filer {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Name = "test"
	cfg.Simulate = simulate
	cfg.TapeDrives = drives
	cfg.BlocksPerDisk = 512
	f, err := NewFiler(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFilerDefaults(t *testing.T) {
	f := newTestFiler(t, false, 1)
	if f.FS == nil || f.Vol == nil || f.NVRAM == nil || len(f.Tapes) != 1 {
		t.Fatalf("incomplete filer: %+v", f)
	}
	if f.Env != nil || f.CPU != nil {
		t.Fatal("untimed filer has a sim environment")
	}
	if f.Vol.NumBlocks() != 3*10*512 {
		t.Fatalf("volume %d blocks", f.Vol.NumBlocks())
	}
	if err := f.FS.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestFilerSimulatedHasClock(t *testing.T) {
	f := newTestFiler(t, true, 1)
	if f.Env == nil || f.CPU == nil {
		t.Fatal("simulated filer missing env/cpu")
	}
}

func TestFilerSharedEnvironment(t *testing.T) {
	a := newTestFiler(t, true, 1)
	cfg := DefaultConfig()
	cfg.Name = "second"
	cfg.Simulate = true
	cfg.Env = a.Env
	cfg.CPU = a.CPU
	cfg.BlocksPerDisk = 512
	b, err := NewFiler(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Env != a.Env || b.CPU != a.CPU {
		t.Fatal("second filer did not share the environment")
	}
}

func TestLogicalDumpRestoreViaFiler(t *testing.T) {
	f := newTestFiler(t, true, 1)
	want := []byte("filer-level roundtrip")
	if _, err := f.FS.WriteFile(ctx, "/data/x.bin", want, 0644); err != nil {
		t.Fatal(err)
	}
	var derr error
	f.Env.Spawn("cycle", func(p *sim.Proc) {
		c := Proc(ctx, p)
		if derr = f.LoadTape(c, 0); derr != nil {
			return
		}
		if _, derr = f.LogicalDump(c, 0, 0, "", "snap"); derr != nil {
			return
		}
	})
	f.Env.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	// The dump snapshot is cleaned up afterwards.
	if len(f.FS.Snapshots()) != 0 {
		t.Fatalf("snapshots left behind: %v", f.FS.Snapshots())
	}

	if err := f.Wipe(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FS.ActiveView().ReadFile(ctx, "/data/x.bin"); err == nil {
		t.Fatal("wipe left data behind")
	}
	f.Env.Spawn("restore", func(p *sim.Proc) {
		c := Proc(ctx, p)
		if _, derr = f.LogicalRestore(c, 0, "/", false); derr != nil {
			return
		}
	})
	f.Env.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	got, err := f.FS.ActiveView().ReadFile(ctx, "/data/x.bin")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored %q, %v", got, err)
	}
}

func TestImageDumpRestoreViaFiler(t *testing.T) {
	f := newTestFiler(t, true, 1)
	workload.Generate(ctx, f.FS, workload.Spec{Seed: 61, Files: 20, DirFanout: 4, MeanFileSize: 4 << 10})
	want, _ := workload.TreeDigest(ctx, f.FS.ActiveView(), "/")

	target := storage.NewMemDevice(f.Vol.NumBlocks())
	var derr error
	f.Env.Spawn("image", func(p *sim.Proc) {
		c := Proc(ctx, p)
		if derr = f.LoadTape(c, 0); derr != nil {
			return
		}
		if _, derr = f.ImageDump(c, 0, "img", ""); derr != nil {
			return
		}
		if _, derr = f.ImageRestore(c, 0, target, false); derr != nil {
			return
		}
	})
	f.Env.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	// Unlike LogicalDump, the image snapshot persists as the next base.
	if len(f.FS.Snapshots()) != 1 {
		t.Fatalf("image snapshot not retained: %v", f.FS.Snapshots())
	}
	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("filer image roundtrip differs: %v", diffs[0])
	}
}

func TestWipeResetsState(t *testing.T) {
	f := newTestFiler(t, false, 1)
	f.FS.WriteFile(ctx, "/junk", make([]byte, 64<<10), 0644)
	f.FS.CreateSnapshot(ctx, "old")
	used := f.FS.UsedBlocks()
	if err := f.Wipe(ctx); err != nil {
		t.Fatal(err)
	}
	if f.FS.UsedBlocks() >= used {
		t.Fatal("wipe did not free space")
	}
	if len(f.FS.Snapshots()) != 0 {
		t.Fatal("wipe kept snapshots")
	}
	if err := f.FS.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}
