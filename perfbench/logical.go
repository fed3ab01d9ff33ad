package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dumpfmt"
	"repro/internal/logical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// The aged home-volume dataset of internal/bench (Tables 2-5). The
// mean file size gives the metadata-to-data ratio of the paper's
// engineering dataset.
const (
	homeMB        = 48
	homeMeanFile  = 64 << 10
	homeAgeRounds = 6
)

// home is the aged dataset both engine workloads dump: a filer with a
// populated, aged volume and a snapshot of it.
type home struct {
	env  *sim.Env
	cpu  *sim.Station
	tr   *Tracer
	dev  func(*core.Filer) storage.Device
	f    *core.Filer
	view *wafl.View // the snapshot every cycle dumps
	data int64      // live bytes in the snapshot
	want map[string]workload.Entry
}

func setupHome(ctx context.Context, seed int64, traced bool, parts map[string]time.Duration) (*home, error) {
	h := &home{env: sim.NewEnv()}
	h.cpu = sim.NewStation(h.env, "home/cpu", 0)
	if traced {
		h.tr = newTracer(h.env)
	}
	h.dev = volumeDevice(h.tr)
	var err error
	if h.f, err = newFiler(ctx, "home", homeMB, h.env, h.cpu, h.dev); err != nil {
		return nil, err
	}
	if _, err := populate(ctx, h.f.FS, seed, homeMB, homeMeanFile, homeAgeRounds, true, parts); err != nil {
		return nil, err
	}
	if err := h.f.FS.CreateSnapshot(ctx, "base"); err != nil {
		return nil, err
	}
	if h.view, err = h.f.FS.SnapshotView("base"); err != nil {
		return nil, err
	}
	h.data = int64(h.f.FS.UsedBlocks()) * wafl.BlockSize
	return h, nil
}

func (h *home) tracer() *Tracer { return h.tr }

func (h *home) release() { *h = home{} }

// sourceDigest computes the snapshot's digest once, outside any
// measurement.
func (h *home) sourceDigest(ctx context.Context, s *sample) bool {
	if h.want != nil {
		return true
	}
	var err error
	h.want, err = digest(ctx, h.view)
	s.check("source tree digest", err)
	return err == nil
}

// drives returns n fresh tape drives, each with a cartridge loaded.
func (h *home) drives(n int) ([]*tape.Drive, error) {
	ds := make([]*tape.Drive, n)
	for i := range ds {
		ds[i] = newDrive(h.env, fmt.Sprintf("tape%d", i), 2)
	}
	return ds, untimed(h.env, "load", func(p *sim.Proc) error {
		for _, d := range ds {
			if err := d.Load(p); err != nil {
				return err
			}
		}
		return nil
	})
}

func (h *home) rewind(ds []*tape.Drive) error {
	return untimed(h.env, "rewind", func(p *sim.Proc) error {
		for _, d := range ds {
			d.Rewind(p)
		}
		return nil
	})
}

func (h *home) sink(d *tape.Drive) (*logical.DriveSink, dumpfmt.Sink) {
	s := &logical.DriveSink{Drive: d}
	if h.tr == nil {
		return s, s
	}
	return s, &tracedTapeSink{s: s, t: h.tr}
}

func (h *home) source(d *tape.Drive) (*logical.DriveSource, dumpfmt.Source) {
	s := logical.NewDriveSource(d, nil, 0)
	if h.tr == nil {
		return s, s
	}
	return s, &tracedTapeSource{s: s, t: h.tr}
}

// logicalBench is the logical-1drive workload: a level-0 logical dump
// of the aged snapshot to one tape drive, then a logical restore onto a
// freshly formatted volume.
type logicalBench struct{ *home }

func setupLogical(ctx context.Context, seed int64, traced bool, parts map[string]time.Duration) (instance, error) {
	h, err := setupHome(ctx, seed, traced, parts)
	if err != nil {
		return nil, err
	}
	return logicalBench{h}, nil
}

func (b logicalBench) cycle(ctx context.Context) *sample {
	s := &sample{det: make(map[string]float64)}
	if !b.sourceDigest(ctx, s) {
		return s
	}
	drives, err := b.drives(1)
	if err != nil {
		s.check("tape load", err)
		return s
	}
	sink, dumpSink := b.sink(drives[0])
	src := b.f.Vol
	vol0, tape0, cpu0 := readVol(src), readTapes(drives), b.cpu.Busy()
	hits0, misses0 := b.f.FS.CacheStats()
	s.dump, err = runOp(b.env, b.tr, "logical.dump", func(p *sim.Proc) error {
		sink.Proc = p
		if _, err := logical.Dump(sim.WithProc(ctx, p), logical.DumpOptions{
			View: b.view, Level: 0, Dates: logical.NewDumpDates(), FSID: "home",
			Sink: dumpSink, Label: "base", ReadAhead: 16,
		}); err != nil {
			return err
		}
		flushTape(b.tr, p, drives[0])
		return nil
	})
	s.check("logical dump", err)
	if err != nil {
		return s
	}
	s.dumpData = b.data
	cpu := b.cpu.Busy() - cpu0
	hits, misses := b.f.FS.CacheStats()
	if n := hits - hits0 + misses - misses0; n > 0 {
		s.det["wafl.cache_hit_ratio"] = float64(hits-hits0) / float64(n)
	}
	dumpVol := readVol(src).sub(vol0)
	s.dumpVolume(src, dumpVol)
	media := s.dumpTapes(drives, readTapes(drives).sub(tape0))

	target, err := newFiler(ctx, "target", homeMB, b.env, b.cpu, b.dev)
	if err != nil {
		s.check("target volume", err)
		return s
	}
	if err := b.rewind(drives); err != nil {
		s.check("tape rewind", err)
		return s
	}
	source, restoreSource := b.source(drives[0])
	vol1, tvol0 := readVol(src), readVol(target.Vol)
	nv0, nvBusy0 := target.NVRAM.Appends(), target.NVRAM.Station().Busy()
	s.restore, err = runOp(b.env, b.tr, "logical.restore", func(p *sim.Proc) error {
		source.Proc = p
		_, err := logical.Restore(sim.WithProc(ctx, p), logical.RestoreOptions{
			FS: target.FS, Source: restoreSource, TargetDir: "/", KernelIntegrated: true,
		})
		return err
	})
	s.check("logical restore", err)
	s.restoreData = b.data
	s.det["nvram.appends"] = float64(target.NVRAM.Appends() - nv0)
	s.det["nvram.busy_sim_s"] = (target.NVRAM.Station().Busy() - nvBusy0).Seconds()
	s.addVolume(dumpVol.add(readVol(src).sub(vol1)))
	s.addVolume(readVol(target.Vol).sub(tvol0))
	s.finish(media, cpu)

	got, err := digest(ctx, target.FS.ActiveView())
	if err == nil {
		err = sameTree(b.want, got)
	}
	s.check("restored tree digest", err)
	return s
}
