package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// newFiler builds a simulated filer shaped like the paper's home volume
// (3 RAID groups of 10 data disks) with capacity for ~4x dataMB, on env
// and cpu (nil for a fresh pair). Its filesystem is formatted again
// over dev(f.Vol), so a traced run sees every volume call; untraced,
// dev returns the volume itself and the same format runs.
func newFiler(ctx context.Context, name string, dataMB int, env *sim.Env, cpu *sim.Station, dev func(*core.Filer) storage.Device) (*core.Filer, error) {
	fc := core.DefaultConfig()
	fc.Name = name
	fc.Simulate = true
	fc.Env, fc.CPU = env, cpu
	fc.BlocksPerDisk = dataMB << 20 / wafl.BlockSize * 4 / (fc.RaidGroups * fc.DataDisksPerGroup)
	f, err := core.NewFiler(ctx, fc)
	if err != nil {
		return nil, err
	}
	f.NVRAM.Reset()
	f.FS, err = wafl.Mkfs(ctx, dev(f), f.NVRAM, wafl.Options{
		Costs: f.Config.FSCosts, Env: f.Env,
		CacheBlocks: f.Config.CacheBlocks, ReadAhead: f.Config.ReadAhead,
	})
	return f, err
}

// newDrive returns a fresh tape drive with carts empty cartridges.
func newDrive(env *sim.Env, name string, carts int) *tape.Drive {
	d := tape.NewDrive(env, name, tape.DefaultParams())
	for i := 0; i < carts; i++ {
		d.AddCartridges(tape.NewCartridge(fmt.Sprintf("%s-c%d", name, i)))
	}
	return d
}

// populate generates dataMB of files of mean size mean from seed and
// ages them for
// rounds rounds of churn, then takes a consistency point. It returns
// the file paths and adds the host CPU time of each step to parts.
func populate(ctx context.Context, fs *wafl.FS, seed int64, dataMB, mean, rounds int, links bool, parts map[string]time.Duration) ([]string, error) {
	files := dataMB << 20 / mean
	spec := workload.Spec{Seed: seed, Files: files, DirFanout: 12, MeanFileSize: mean}
	if links {
		spec.Symlinks, spec.Hardlinks = files/40, files/60
	}
	t0 := cpuNow()
	paths, err := workload.Generate(ctx, fs, spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	parts["workload.generate_s"] += cpuNow() - t0
	if rounds > 0 {
		t0 = cpuNow()
		if paths, err = workload.Age(ctx, fs, paths, workload.AgeSpec{
			Seed: seed + 7, Rounds: rounds, ChurnPerRound: files / 3, MeanFileSize: mean,
		}); err != nil {
			return nil, fmt.Errorf("age: %w", err)
		}
		parts["workload.age_s"] += cpuNow() - t0
	}
	t0 = cpuNow()
	if err := fs.CP(ctx); err != nil {
		return nil, fmt.Errorf("cp: %w", err)
	}
	parts["wafl.cp_s"] += cpuNow() - t0
	return paths, nil
}

// digest returns the tree digest of v.
func digest(ctx context.Context, v *wafl.View) (map[string]workload.Entry, error) {
	return workload.TreeDigest(ctx, v, "/")
}

// sameTree compares two digests and describes the first difference.
func sameTree(want, got map[string]workload.Entry) error {
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		return fmt.Errorf("%d paths differ, first: %s", len(diffs), diffs[0])
	}
	return nil
}

// op is the cost of one engine call: host CPU time of the simulation
// run that executed it, its virtual elapsed time, and the Go heap
// bytes it allocated.
type op struct {
	host  time.Duration
	sim   time.Duration
	alloc uint64
}

func (o *op) add(x op) {
	o.host += x.host
	o.sim += x.sim
	o.alloc += x.alloc
}

// timeOp measures run, which executes one op as the simulation
// advances from its current time. Traced, the op is span name opened on
// process p.
func timeOp(env *sim.Env, tr *Tracer, name string, p *sim.Proc, run func()) op {
	// Start every op from a collected heap, so the collection work that
	// lands inside it depends on what it allocates, not on where the
	// previous op left the GC cycle.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, sim0 := ms.TotalAlloc, env.Now()
	t0 := cpuNow()
	tr.beginOp(p, name)
	run()
	tr.endOp(p)
	o := op{host: cpuNow() - t0, sim: env.Now() - sim0}
	runtime.ReadMemStats(&ms)
	o.alloc = ms.TotalAlloc - alloc0
	return o
}

// runOp runs fn as a simulated process and measures it as op name.
func runOp(env *sim.Env, tr *Tracer, name string, fn func(p *sim.Proc) error) (op, error) {
	var err error
	var o op
	var simTime time.Duration
	o = timeOp(env, tr, name, nil, func() {
		env.Spawn(name, func(p *sim.Proc) {
			s0 := p.Now()
			err = fn(p)
			simTime = p.Now() - s0
		})
		env.Run()
	})
	o.sim = simTime
	if err != nil {
		return o, fmt.Errorf("%s: %w", name, err)
	}
	return o, nil
}

// untimed runs fn as a simulated process outside any measurement:
// tape loads and rewinds, which the paper's tables leave out of an
// operation's elapsed time.
func untimed(env *sim.Env, name string, fn func(p *sim.Proc) error) error {
	var err error
	env.Spawn(name, func(p *sim.Proc) { err = fn(p) })
	env.Run()
	return err
}
