package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/physical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// Config sizes an experiment. The paper ran 188 GB on 31 disks; we run
// the same code paths at laptop scale (tens of MB) — rates, ratios and
// utilizations are the comparison targets, not absolute hours.
type Config struct {
	// DataMB is the approximate dataset size in MiB.
	DataMB int
	// Seed drives the deterministic workload.
	Seed int64
	// AgeRounds is how much churn matures (fragments) the filesystem.
	AgeRounds int
	// Verify re-reads every restored tree and compares digests.
	Verify bool
	// Readers is the per-shard parallel reader count for the pipelined
	// dump engines in the Table 4/5 experiments; 0 means 3.
	Readers int
	// PipeDepth is the per-reader extent read-ahead depth of the
	// physical dump pipeline; 0 means 3. Depth 1 shows the spindle
	// plateau the read-ahead batching exists to break.
	PipeDepth int
	// Tweak, if set, adjusts the filer configuration (ablations).
	Tweak func(*core.FilerConfig)
}

// DefaultConfig returns the standard experiment scale.
func DefaultConfig() Config {
	return Config{DataMB: 48, Seed: 1999, AgeRounds: 6, Verify: true}
}

// readers/pipeDepth apply the Config defaults.
func (c Config) readers() int {
	if c.Readers > 0 {
		return c.Readers
	}
	return 3
}

func (c Config) pipeDepth() int {
	if c.PipeDepth > 0 {
		return c.PipeDepth
	}
	return 3
}

// buildFiler sizes a filer for cfg: the paper's home-volume shape
// (3 RAID groups × 10 data disks) with capacity ~4× the dataset.
func buildFiler(ctx context.Context, cfg Config, name string, drives int, env *sim.Env, cpu *sim.Station) (*core.Filer, error) {
	fc := core.DefaultConfig()
	fc.Name = name
	fc.Simulate = true
	fc.Env = env
	fc.CPU = cpu
	fc.TapeDrives = drives
	totalBlocks := cfg.DataMB << 20 / wafl.BlockSize * 4
	fc.BlocksPerDisk = totalBlocks / (fc.RaidGroups * fc.DataDisksPerGroup)
	if fc.BlocksPerDisk < 64 {
		fc.BlocksPerDisk = 64
	}
	if cfg.Tweak != nil {
		cfg.Tweak(&fc)
	}
	return core.NewFiler(ctx, fc)
}

// populate generates and ages cfg's dataset under prefix (the empty
// prefix fills the root). Population runs untimed: the experiment
// clock starts with the first measured operation.
func populate(ctx context.Context, f *core.Filer, cfg Config, prefix string, seedOff int64) error {
	// Mean file size matches the metadata-to-data ratio of the paper's
	// engineering dataset: directory mapping should cost a few percent
	// of the file pass, not a third of it.
	const mean = 64 << 10
	files := cfg.DataMB << 20 / mean
	spec := workload.Spec{
		Seed: cfg.Seed + seedOff, Files: files, DirFanout: 12,
		MeanFileSize: mean, Symlinks: files / 40, Hardlinks: files / 60,
		Prefix: prefix,
	}
	paths, err := workload.Generate(ctx, f.FS, spec)
	if err != nil {
		return err
	}
	_, err = workload.Age(ctx, f.FS, paths, workload.AgeSpec{
		Seed: cfg.Seed + seedOff + 7, Rounds: cfg.AgeRounds,
		ChurnPerRound: files / 3, MeanFileSize: mean, Prefix: prefix,
	})
	return err
}

// BasicResult is the outcome of the Table 2 + Table 3 experiment.
type BasicResult struct {
	DataBytes       int64 // active data at dump time
	LogicalBackup   OpResult
	LogicalRestore  OpResult
	PhysicalBackup  OpResult
	PhysicalRestore OpResult
}

// Ops returns the four rows in the paper's Table 2 order.
func (r *BasicResult) Ops() []OpResult {
	return []OpResult{r.LogicalBackup, r.LogicalRestore, r.PhysicalBackup, r.PhysicalRestore}
}

// RunBasic reproduces Tables 2 and 3: back up and restore a mature
// dataset with each strategy on a single tape drive, measuring
// elapsed time, throughput and per-stage CPU utilization.
func RunBasic(ctx context.Context, cfg Config) (*BasicResult, error) {
	f, err := buildFiler(ctx, cfg, "eliot", 2, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := populate(ctx, f, cfg, "", 0); err != nil {
		return nil, err
	}
	if err := f.FS.CP(ctx); err != nil {
		return nil, err
	}
	res := &BasicResult{DataBytes: int64(f.FS.UsedBlocks()) * wafl.BlockSize}

	var wantDigest map[string]workload.Entry
	if cfg.Verify {
		if wantDigest, err = workload.TreeDigest(ctx, f.FS.ActiveView(), "/"); err != nil {
			return nil, err
		}
	}

	meters := &Meters{Env: f.Env, CPU: f.CPU, Vols: []*raid.Volume{f.Vol}, Tapes: f.Tapes}

	// --- Logical backup to tape drive 0.
	recLB := NewRecorder(meters)
	var dumpErr error
	var dumpBytes int64
	f.Env.Spawn("logical-dump", func(p *sim.Proc) {
		c := recLB.Trace(sim.WithProc(ctx, p))
		if err := f.LoadTape(c, 0); err != nil {
			dumpErr = err
			return
		}
		recLB.Begin("Creating snapshot")
		if err := f.FS.CreateSnapshot(c, "ldump"); err != nil {
			dumpErr = err
			return
		}
		recLB.End("Creating snapshot")
		view, _ := f.FS.SnapshotView("ldump")
		stats, err := dumpLevel(c, f, view, 0, 0, 16)
		if err != nil {
			dumpErr = err
			return
		}
		dumpBytes = stats.BytesWritten
		recLB.Begin("Deleting snapshot")
		dumpErr = f.FS.DeleteSnapshot(c, "ldump")
		recLB.End("Deleting snapshot")
	})
	f.Env.Run()
	if dumpErr != nil {
		return nil, fmt.Errorf("bench: logical dump: %w", dumpErr)
	}
	res.LogicalBackup = summarize("Logical Backup", recLB, dumpBytes)

	// --- Logical restore: wipe the filesystem and read the tape back.
	if err := f.Wipe(ctx); err != nil {
		return nil, err
	}
	recLR := NewRecorder(meters)
	var restErr error
	var restBytes int64
	f.Env.Spawn("logical-restore", func(p *sim.Proc) {
		c := recLR.Trace(sim.WithProc(ctx, p))
		stats, err := f.LogicalRestore(c, 0, "/", false)
		if err != nil {
			restErr = err
			return
		}
		restBytes = stats.BytesRead
	})
	f.Env.Run()
	if restErr != nil {
		return nil, fmt.Errorf("bench: logical restore: %w", restErr)
	}
	res.LogicalRestore = summarize("Logical Restore", recLR, restBytes)
	if cfg.Verify {
		got, err := workload.TreeDigest(ctx, f.FS.ActiveView(), "/")
		if err != nil {
			return nil, err
		}
		if diffs := workload.DiffDigests(wantDigest, got); len(diffs) > 0 {
			return nil, fmt.Errorf("bench: logical restore verification failed: %s", diffs[0])
		}
	}

	// --- Physical backup of the (restored) dataset to drive 1.
	recPB := NewRecorder(meters)
	var pbErr error
	var pbBytes int64
	f.Env.Spawn("image-dump", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		if err := f.LoadTape(c, 1); err != nil {
			pbErr = err
			return
		}
		recPB.Begin("Creating snapshot")
		if err := f.FS.CreateSnapshot(c, "idump"); err != nil {
			pbErr = err
			return
		}
		recPB.End("Creating snapshot")
		recPB.Begin("Dumping blocks")
		stats, err := physical.Dump(c, physical.DumpOptions{
			FS: f.FS, Vol: f.Vol, SnapName: "idump",
			Sink: f.Sink(c, 1), Costs: f.Config.PhysCosts,
		})
		if err != nil {
			pbErr = err
			return
		}
		f.Tapes[1].Flush(p)
		recPB.End("Dumping blocks")
		pbBytes = stats.BytesWritten
		recPB.Begin("Deleting snapshot")
		pbErr = f.FS.DeleteSnapshot(c, "idump")
		recPB.End("Deleting snapshot")
	})
	f.Env.Run()
	if pbErr != nil {
		return nil, fmt.Errorf("bench: image dump: %w", pbErr)
	}
	res.PhysicalBackup = summarize("Physical Backup", recPB, pbBytes)

	// --- Physical restore to a fresh volume of the same geometry.
	target, err := raid.Build(f.Env, "target", raid.Config{
		Groups:            f.Config.RaidGroups,
		DataDisksPerGroup: f.Config.DataDisksPerGroup,
		BlocksPerDisk:     f.Config.BlocksPerDisk,
		DiskParams:        f.Config.DiskParams,
	})
	if err != nil {
		return nil, err
	}
	meters.Vols = append(meters.Vols, target)
	recPR := NewRecorder(meters)
	var prErr error
	var prBytes int64
	f.Env.Spawn("image-restore", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		recPR.Begin("Restoring blocks")
		stats, err := f.ImageRestore(c, 1, target, false)
		if err != nil {
			prErr = err
			return
		}
		target.Flush(c)
		recPR.End("Restoring blocks")
		prBytes = stats.BytesRead
	})
	f.Env.Run()
	if prErr != nil {
		return nil, fmt.Errorf("bench: image restore: %w", prErr)
	}
	res.PhysicalRestore = summarize("Physical Restore", recPR, prBytes)
	if cfg.Verify {
		restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: mounting image-restored volume: %w", err)
		}
		got, err := workload.TreeDigest(ctx, restored.ActiveView(), "/")
		if err != nil {
			return nil, err
		}
		if diffs := workload.DiffDigests(wantDigest, got); len(diffs) > 0 {
			return nil, fmt.Errorf("bench: image restore verification failed: %s", diffs[0])
		}
	}
	return res, nil
}
