// Quickstart: build a filer, write some files, take a snapshot, run a
// logical (BSD-style) dump to tape and restore it onto a second filer,
// then verify the trees match byte for byte.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()

	// A simulated filer: RAID volume, NVRAM, WAFL filesystem, one tape
	// drive. Simulate=true attaches the virtual clock, so the dump
	// reports how long it would have taken on the modelled hardware.
	cfg := core.DefaultConfig()
	cfg.Name = "demo"
	cfg.Simulate = true
	source, err := core.NewFiler(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Put some data on it.
	if _, err := source.FS.WriteFile(ctx, "/projects/notes.txt", []byte("backup me!\n"), 0644); err != nil {
		log.Fatal(err)
	}
	paths, err := workload.Generate(ctx, source.FS, workload.Spec{
		Seed: 42, Files: 100, DirFanout: 8, MeanFileSize: 16 << 10, Symlinks: 3, Hardlinks: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d files (%d blocks in use)\n", len(paths)+1, source.FS.UsedBlocks())

	// Dump to tape as a simulated process so the virtual clock runs.
	var elapsed sim.Time
	source.Env.Spawn("dump", func(p *sim.Proc) {
		c := core.Proc(ctx, p)
		if err := source.LoadTape(c, 0); err != nil {
			log.Fatal(err)
		}
		start := p.Now()
		stats, err := source.LogicalDump(c, 0, 0, "", "quickstart")
		if err != nil {
			log.Fatal(err)
		}
		elapsed = p.Now() - start
		fmt.Printf("logical dump: %d files, %d dirs, %.1f MB on tape\n",
			stats.FilesDumped, stats.DirsDumped, float64(stats.BytesWritten)/(1<<20))
	})
	source.Env.Run()
	fmt.Printf("virtual dump time on the modelled hardware: %v\n", elapsed)

	// "Cross-restore": a brand-new filer reads the same cartridge.
	destCfg := cfg
	destCfg.Name = "replica"
	destCfg.Env = source.Env // share the clock
	destCfg.CPU = source.CPU
	dest, err := core.NewFiler(ctx, destCfg)
	if err != nil {
		log.Fatal(err)
	}
	// Physically move the cartridge: eject from the source drive's
	// mechanism by handing the drive to the destination filer.
	dest.Tapes[0] = source.Tapes[0]

	dest.Env.Spawn("restore", func(p *sim.Proc) {
		c := core.Proc(ctx, p)
		stats, err := dest.LogicalRestore(c, 0, "/", false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restore: %d files recreated\n", stats.FilesRestored)
	})
	dest.Env.Run()

	// Verify.
	want, err := workload.TreeDigest(ctx, source.FS.ActiveView(), "/")
	if err != nil {
		log.Fatal(err)
	}
	got, err := workload.TreeDigest(ctx, dest.FS.ActiveView(), "/")
	if err != nil {
		log.Fatal(err)
	}
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		log.Fatalf("restored tree differs: %v", diffs)
	}
	fmt.Println("verified: restored tree is identical to the source")
}
