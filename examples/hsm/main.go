// Makeshift HSM — the paper's §1 observation that "some companies are
// using dump/restore to implement a kind of makeshift Hierarchical
// Storage Management system where high performance RAID systems
// nightly replicate data on lower cost backup file servers, which
// eventually backup data to tape."
//
// A week of operation: a level-0 logical dump Sunday night, then
// incremental dumps at increasing levels each weeknight, each applied
// to a cheap secondary filer; Friday night the secondary spools
// everything to tape. The secondary tracks the primary exactly —
// including deletions and renames — while the primary only ever pays
// for the nightly incremental.
//
// Run with: go run ./examples/hsm
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()

	mk := func(name string) *core.Filer {
		cfg := core.DefaultConfig()
		cfg.Name = name
		cfg.Simulate = true
		cfg.TapeDrives = 2
		f, err := core.NewFiler(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return f
	}
	primary := mk("fast-raid")
	secondary := mk("cheap-server")
	// The "network" between them is a tape cartridge in this setup;
	// share the drive object so streams written by the primary are
	// readable by the secondary.
	secondary.Tapes = primary.Tapes

	paths, err := workload.Generate(ctx, primary.FS, workload.Spec{
		Seed: 2026, Files: 120, DirFanout: 10, MeanFileSize: 12 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	night := func(day string, level int) {
		var dumpBytes int64
		primary.Env.Spawn("dump-"+day, func(p *sim.Proc) {
			c := core.Proc(ctx, p)
			// A fresh cartridge every night: the stacker cycles, and
			// the secondary reads tonight's stream from its start.
			if err := primary.LoadTape(c, 0); err != nil {
				log.Fatal(err)
			}
			stats, err := primary.LogicalDump(c, 0, level, "", day)
			if err != nil {
				log.Fatal(err)
			}
			dumpBytes = stats.BytesWritten
		})
		primary.Env.Run()

		secondary.Env.Spawn("apply-"+day, func(p *sim.Proc) {
			c := core.Proc(ctx, p)
			if _, err := secondary.LogicalRestore(c, 0, "/", level > 0); err != nil {
				log.Fatal(err)
			}
		})
		secondary.Env.Run()
		fmt.Printf("%-10s level %d: %6.1f KB shipped to the secondary\n", day, level, float64(dumpBytes)/1024)
	}

	night("sunday", 0)

	// Weeknights: churn on the primary, then an incremental.
	r := rand.New(rand.NewSource(5))
	days := []string{"monday", "tuesday", "wednesday", "thursday"}
	for i, day := range days {
		// Users work: edit some files, delete one, add one.
		victim := paths[r.Intn(len(paths))]
		if err := primary.FS.RemovePath(ctx, victim); err == nil {
			paths = remove(paths, victim)
		}
		edited := paths[r.Intn(len(paths))]
		data := make([]byte, r.Intn(20<<10)+512)
		r.Read(data)
		primary.FS.WriteFile(ctx, edited, data, 0644)
		newFile := fmt.Sprintf("/inbox/%s-report.txt", day)
		primary.FS.WriteFile(ctx, newFile, []byte(day+" report\n"), 0644)
		paths = append(paths, newFile)

		night(day, i+1)
	}

	// Verify the secondary tracks the primary exactly.
	want, _ := workload.TreeDigest(ctx, primary.FS.ActiveView(), "/")
	got, _ := workload.TreeDigest(ctx, secondary.FS.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		log.Fatalf("secondary diverged: %v", diffs)
	}
	fmt.Println("secondary matches the primary after the incremental week ✓")

	// Friday: the secondary spools to tape — the primary never sees it.
	secondary.Env.Spawn("to-tape", func(p *sim.Proc) {
		c := core.Proc(ctx, p)
		if err := secondary.LoadTape(c, 1); err != nil {
			log.Fatal(err)
		}
		stats, err := secondary.LogicalDump(c, 1, 0, "", "weekly-archive")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("friday: secondary archived %.1f MB to tape without touching the primary\n",
			float64(stats.BytesWritten)/(1<<20))
	})
	secondary.Env.Run()
}

func remove(paths []string, p string) []string {
	out := paths[:0]
	for _, q := range paths {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}
