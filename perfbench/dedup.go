package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dumpfmt"
	"repro/internal/logical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// The dedup week of internal/bench's RunChunkWeek: a fresh dataset gets
// a level-0 logical full a day, with ~2% of files churned in between.
const (
	weekMB       = 24
	weekMeanFile = 16 << 10
	weekDays     = 7
)

// dedupBench is the dedup-week workload: the week's fulls go through
// the forward-dedup chunk writer into a catalog index and tape media,
// then the last day is restored through the chunk reader.
type dedupBench struct {
	env   *sim.Env
	cpu   *sim.Station
	tr    *Tracer
	dev   func(*core.Filer) storage.Device
	f     *core.Filer
	seed  int64
	paths []string
}

func setupDedup(ctx context.Context, seed int64, traced bool, parts map[string]time.Duration) (instance, error) {
	b := &dedupBench{env: sim.NewEnv(), seed: seed}
	b.cpu = sim.NewStation(b.env, "week/cpu", 0)
	if traced {
		b.tr = newTracer(b.env)
	}
	b.dev = volumeDevice(b.tr)
	var err error
	if b.f, err = newFiler(ctx, "week", weekMB, b.env, b.cpu, b.dev); err != nil {
		return nil, err
	}
	b.paths, err = populate(ctx, b.f.FS, seed, weekMB, weekMeanFile, 0, false, parts)
	return b, err
}

func (b *dedupBench) tracer() *Tracer { return b.tr }

func (b *dedupBench) release() { *b = dedupBench{} }

func (b *dedupBench) cycle(ctx context.Context) *sample {
	s := &sample{det: make(map[string]float64)}
	cat, err := catalog.Open(&catalog.MemStore{})
	if err != nil {
		s.check("catalog open", err)
		return s
	}
	drive := newDrive(b.env, "tape0", weekDays)
	drives := []*tape.Drive{drive}
	media := chunk.NewDriveMedia(drive, nil)
	ref := &procRef{}
	var index chunk.Index = cat
	var med chunk.Media = media
	if b.tr != nil {
		index = &tracedIndex{c: cat, t: b.tr, proc: ref}
		med = &tracedMedia{m: media, t: b.tr, proc: ref}
	}

	src := b.f.Vol
	var tapes tapeCounters
	var dumpVol volCounters
	var cpu time.Duration
	var hits, misses int64
	var ws chunk.WriterStats
	var last chunk.Manifest
	var view *wafl.View
	files := weekMB << 20 / weekMeanFile
	for day := 1; day <= weekDays; day++ {
		if day > 1 {
			if b.paths, err = workload.Age(ctx, b.f.FS, b.paths, workload.AgeSpec{
				Seed: b.seed + int64(day), Rounds: 1, ChurnPerRound: 1 + files/50, MeanFileSize: weekMeanFile,
			}); err == nil {
				err = b.f.FS.CP(ctx)
			}
			if err != nil {
				s.check(fmt.Sprintf("day %d churn", day), err)
				return s
			}
		}
		snap := fmt.Sprintf("day%d", day)
		if err := b.f.FS.CreateSnapshot(ctx, snap); err != nil {
			s.check(snap+" snapshot", err)
			return s
		}
		if view, err = b.f.FS.SnapshotView(snap); err != nil {
			s.check(snap+" snapshot", err)
			return s
		}
		// Each full gets its own cartridge, as a scheduler rotates media.
		if err := untimed(b.env, "load", func(p *sim.Proc) error {
			media.Proc = p
			return media.NextVolume()
		}); err != nil {
			s.check(snap+" tape load", err)
			return s
		}
		t0, c0, v0 := readTapes(drives), b.cpu.Busy(), readVol(src)
		h0, m0 := b.f.FS.CacheStats()
		var st chunk.WriterStats
		o, err := runOp(b.env, b.tr, "logical.dump", func(p *sim.Proc) error {
			c := sim.WithProc(ctx, p)
			media.Proc, ref.p = p, p
			w, err := chunk.NewWriter(chunk.WriterOptions{Index: index, Media: med, Ctx: c, Engine: "logical"})
			if err != nil {
				return err
			}
			var sink dumpfmt.Sink = w
			closeW := w.Close
			if b.tr != nil {
				tw := &tracedChunkWriter{w: w, t: b.tr, proc: ref}
				sink, closeW = tw, tw.close
			}
			if _, err := logical.Dump(c, logical.DumpOptions{
				View: view, Label: snap, FSID: "week", ReadAhead: 16, Sink: sink,
			}); err != nil {
				return err
			}
			if last, err = closeW(); err != nil {
				return err
			}
			st = w.Stats()
			span := b.tr.begin(p, "catalog.append")
			defer b.tr.end(p, span)
			id, err := cat.AppendDumpSet(catalog.DumpSet{
				Engine: catalog.Logical, FSID: "week", Snap: snap, Date: int64(day), Bytes: last.RawBytes,
				Media: []catalog.MediaRef{{Volume: drive.Loaded().Label}},
			})
			if err != nil {
				return err
			}
			return cat.AppendManifest(id, last)
		})
		s.check(snap+" dedup dump", err)
		if err != nil {
			return s
		}
		s.dump.add(o)
		s.dumpData += int64(b.f.FS.UsedBlocks()) * wafl.BlockSize
		tapes.add(readTapes(drives).sub(t0))
		cpu += b.cpu.Busy() - c0
		dumpVol = dumpVol.add(readVol(src).sub(v0))
		h1, m1 := b.f.FS.CacheStats()
		hits, misses = hits+h1-h0, misses+m1-m0
		ws.Chunks, ws.Hits, ws.Rewrites = ws.Chunks+st.Chunks, ws.Hits+st.Hits, ws.Rewrites+st.Rewrites
		ws.CompressedChunks, ws.RawChunks = ws.CompressedChunks+st.CompressedChunks, ws.RawChunks+st.RawChunks
		ws.RawBytes, ws.StoredBytes = ws.RawBytes+st.RawBytes, ws.StoredBytes+st.StoredBytes
	}
	if hits+misses > 0 {
		s.det["wafl.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	s.dumpVolume(src, dumpVol)
	mediaBytes := s.dumpTapes(drives, tapes)
	s.det["chunk.chunks"] = float64(ws.Chunks)
	s.det["chunk.dup_share"] = float64(ws.Hits+ws.Rewrites) / float64(ws.Chunks)
	s.det["chunk.compressed_share"] = float64(ws.CompressedChunks) / float64(ws.CompressedChunks+ws.RawChunks)
	s.det["chunk.stored_per_raw"] = float64(ws.StoredBytes) / float64(ws.RawBytes)

	// Restore the last day onto a fresh volume through the chunk reader.
	want, err := digest(ctx, view)
	if err != nil {
		s.check("day 7 snapshot digest", err)
		return s
	}
	target, err := newFiler(ctx, "target", weekMB, b.env, b.cpu, b.dev)
	if err != nil {
		s.check("target volume", err)
		return s
	}
	vol1, tvol0 := readVol(src), readVol(target.Vol)
	nv0, nvBusy0 := target.NVRAM.Appends(), target.NVRAM.Station().Busy()
	s.restore, err = runOp(b.env, b.tr, "logical.restore", func(p *sim.Proc) error {
		media.Proc, ref.p = p, p
		r := chunk.NewReader(index, med, last)
		var source dumpfmt.Source = r
		if b.tr != nil {
			source = &tracedChunkReader{r: r, t: b.tr, proc: ref}
		}
		_, err := logical.Restore(sim.WithProc(ctx, p), logical.RestoreOptions{
			FS: target.FS, Source: source, TargetDir: "/", KernelIntegrated: true,
		})
		return err
	})
	s.check("day 7 restore", err)
	s.restoreData = int64(b.f.FS.UsedBlocks()) * wafl.BlockSize
	s.det["nvram.appends"] = float64(target.NVRAM.Appends() - nv0)
	s.det["nvram.busy_sim_s"] = (target.NVRAM.Station().Busy() - nvBusy0).Seconds()
	s.addVolume(dumpVol.add(readVol(src).sub(vol1)))
	s.addVolume(readVol(target.Vol).sub(tvol0))
	s.finish(mediaBytes, cpu)

	got, err := digest(ctx, target.FS.ActiveView())
	if err == nil {
		err = sameTree(want, got)
	}
	s.check("day 7 restored tree digest", err)
	return s
}
