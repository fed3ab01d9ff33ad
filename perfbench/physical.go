package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// physicalDrives, physicalReaders and physicalReadAhead are the Table 5
// configuration: one image dump sharded over four drives.
const (
	physicalDrives    = 4
	physicalReaders   = 3
	physicalReadAhead = 3
)

// physicalBench is the physical-4drive workload: one image dump of the
// aged snapshot sharded over four drives, each shard stream verified,
// then one parallel image restore of the four streams onto a fresh
// volume. Cycles repeat on the same snapshot, so the source stays aged.
type physicalBench struct{ *home }

func setupPhysical(ctx context.Context, seed int64, traced bool, parts map[string]time.Duration) (instance, error) {
	h, err := setupHome(ctx, seed, traced, parts)
	if err != nil {
		return nil, err
	}
	return physicalBench{h}, nil
}

func (b physicalBench) cycle(ctx context.Context) *sample {
	s := &sample{det: make(map[string]float64)}
	if !b.sourceDigest(ctx, s) {
		return s
	}
	drives, err := b.drives(physicalDrives)
	if err != nil {
		s.check("tape load", err)
		return s
	}
	raw := make([]*logical.DriveSink, len(drives))
	sinks := make([]physical.Sink, len(drives))
	for i, d := range drives {
		raw[i], sinks[i] = b.sink(d)
	}
	src := b.f.Vol
	vol0, tape0, cpu0, nv0 := readVol(src), readTapes(drives), b.cpu.Busy(), b.f.NVRAM.Appends()
	s.dump, err = runOp(b.env, b.tr, "physical.dump", func(p *sim.Proc) error {
		for _, sk := range raw {
			sk.Proc = p
		}
		if _, err := physical.Dump(sim.WithProc(ctx, p), physical.DumpOptions{
			FS: b.f.FS, Vol: b.dev(b.f), SnapName: "base", Sinks: sinks,
			Costs: b.f.Config.PhysCosts, Readers: physicalReaders, ReadAhead: physicalReadAhead,
		}); err != nil {
			return err
		}
		for _, d := range drives {
			flushTape(b.tr, p, d)
		}
		return nil
	})
	s.check("image dump", err)
	if err != nil {
		return s
	}
	s.dumpData = b.data
	cpu := b.cpu.Busy() - cpu0
	dumpVol := readVol(src).sub(vol0)
	s.dumpVolume(src, dumpVol)
	media := s.dumpTapes(drives, readTapes(drives).sub(tape0))

	// Verify each shard stream off the tape, untimed.
	if err := b.rewind(drives); err != nil {
		s.check("tape rewind", err)
		return s
	}
	for i, d := range drives {
		_, err := physical.VerifyStream(logical.NewDriveSource(d, nil, 0))
		s.check(fmt.Sprintf("verify shard %d", i), err)
	}

	target, err := raid.Build(b.env, "target", raid.Config{
		Groups: b.f.Config.RaidGroups, DataDisksPerGroup: b.f.Config.DataDisksPerGroup,
		BlocksPerDisk: b.f.Config.BlocksPerDisk, DiskParams: b.f.Config.DiskParams,
	})
	if err != nil {
		s.check("target volume", err)
		return s
	}
	if err := b.rewind(drives); err != nil {
		s.check("tape rewind", err)
		return s
	}
	rawSrc := make([]*logical.DriveSource, len(drives))
	sources := make([]physical.Source, len(drives))
	for i, d := range drives {
		rawSrc[i], sources[i] = b.source(d)
	}
	tvol := wrapVolume(b.tr, target)
	vol1 := readVol(src)
	s.restore, err = runOp(b.env, b.tr, "physical.restore", func(p *sim.Proc) error {
		c := sim.WithProc(ctx, p)
		for _, sc := range rawSrc {
			sc.Proc = p
		}
		if _, err := physical.Restore(c, physical.RestoreOptions{
			Vol: tvol, Sources: sources, Costs: b.f.Config.PhysCosts,
		}); err != nil {
			return err
		}
		tvol.Flush(c)
		return nil
	})
	s.check("image restore", err)
	s.restoreData = b.data
	// Image restore writes the raw volume: no NVRAM on its path.
	s.det["nvram.appends"] = float64(b.f.NVRAM.Appends() - nv0)
	s.addVolume(dumpVol.add(readVol(src).sub(vol1)))
	s.addVolume(readVol(target))
	s.finish(media, cpu)

	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err == nil {
		var got map[string]workload.Entry
		if got, err = digest(ctx, restored.ActiveView()); err == nil {
			err = sameTree(b.want, got)
		}
	}
	s.check("restored tree digest", err)
	return s
}
