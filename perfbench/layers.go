package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
)

// Layer counters read through the program's own accessors. They run
// the same way traced and untraced, so they feed the det metrics that
// must repeat exactly.

// volume is what the benchmark uses of a RAID volume: the device the
// filesystem and the engines are handed, plus Flush.
type volume interface {
	storage.AsyncRunDevice
	Prefetch(ctx context.Context, bno int)
	Flush(ctx context.Context)
}

// volumeDevice returns the device a filesystem or engine is handed for
// a filer's volume: the volume itself, or its tracing decorator.
func volumeDevice(tr *Tracer) func(*core.Filer) storage.Device {
	return func(f *core.Filer) storage.Device { return wrapVolume(tr, f.Vol) }
}

func wrapVolume(tr *Tracer, v *raid.Volume) volume {
	if tr == nil {
		return v
	}
	return &tracedVolume{v: v, t: tr}
}

// flushTape waits out drive d's write-behind, traced as tape time.
func flushTape(tr *Tracer, p *sim.Proc, d *tape.Drive) {
	id := tr.begin(p, "tape.write")
	d.Flush(p)
	tr.end(p, id)
}

// volCounters is a reading of a volume's RAID and disk counters.
type volCounters struct {
	read, written int64
	busy          time.Duration
	seeks         int64
	retries       int
	reconstructs  int
}

func readVol(v *raid.Volume) volCounters {
	c := volCounters{busy: v.DiskBusy()}
	c.read, c.written = v.Traffic()
	c.retries, c.reconstructs = v.RecoveryStats()
	for _, g := range v.Groups() {
		for _, d := range append(append([]raid.Disk(nil), g.Data()...), g.Parity()) {
			if s, ok := d.(interface{ Stats() (int64, int64, int64) }); ok {
				_, _, seeks := s.Stats()
				c.seeks += seeks
			}
		}
	}
	return c
}

func (c volCounters) sub(o volCounters) volCounters {
	return volCounters{c.read - o.read, c.written - o.written, c.busy - o.busy,
		c.seeks - o.seeks, c.retries - o.retries, c.reconstructs - o.reconstructs}
}

func (c volCounters) add(o volCounters) volCounters {
	return volCounters{c.read + o.read, c.written + o.written, c.busy + o.busy,
		c.seeks + o.seeks, c.retries + o.retries, c.reconstructs + o.reconstructs}
}

// addVolume adds a volume's counter deltas over the whole cycle.
func (s *sample) addVolume(d volCounters) {
	s.det["raid.read_mb"] += float64(d.read) / 1e6
	s.det["raid.write_mb"] += float64(d.written) / 1e6
	s.det["raid.disk_busy_sim_s"] += d.busy.Seconds()
	s.det["raid.retries"] += float64(d.retries)
	s.det["raid.reconstructs"] += float64(d.reconstructs)
}

// dumpVolume records the source volume's utilization and seek density
// over the dump.
func (s *sample) dumpVolume(v *raid.Volume, d volCounters) {
	s.det["raid.util"] = d.busy.Seconds() / (float64(v.NumDisks()) * s.dump.sim.Seconds())
	if d.read > 0 {
		s.det["vdev.seeks_per_mb"] = float64(d.seeks) / (float64(d.read) / 1e6)
	}
}

// tapeCounters is a reading of a tape bank's counters.
type tapeCounters struct {
	written []int64
	busy    []time.Duration
}

func readTapes(drives []*tape.Drive) tapeCounters {
	var c tapeCounters
	for _, d := range drives {
		w, _, _ := d.Stats()
		c.written = append(c.written, w)
		c.busy = append(c.busy, d.Station().Busy())
	}
	return c
}

func (c tapeCounters) sub(o tapeCounters) tapeCounters {
	d := tapeCounters{written: make([]int64, len(c.written)), busy: make([]time.Duration, len(c.busy))}
	for i := range c.written {
		d.written[i] = c.written[i] - o.written[i]
		d.busy[i] = c.busy[i] - o.busy[i]
	}
	return d
}

// add accumulates delta d into c.
func (c *tapeCounters) add(d tapeCounters) {
	if c.written == nil {
		c.written, c.busy = make([]int64, len(d.written)), make([]time.Duration, len(d.busy))
	}
	for i := range d.written {
		c.written[i] += d.written[i]
		c.busy[i] += d.busy[i]
	}
}

// dumpTapes records the tape bank's deltas d over the dump ops, whose
// virtual length is s.dump.sim, and returns the bytes written to
// media. The slowest drive sets the dump's time, so utilization is the
// busiest drive's and skew the largest drive's bytes over the mean.
func (s *sample) dumpTapes(drives []*tape.Drive, d tapeCounters) int64 {
	var total, largest int64
	var idle float64
	for i, drive := range drives {
		total += d.written[i]
		largest = max(largest, d.written[i])
		util := d.busy[i].Seconds() / s.dump.sim.Seconds()
		s.det["tape.busy_sim_s"] += d.busy[i].Seconds()
		s.det["tape.util"] = max(s.det["tape.util"], util)
		idle += 1 - util
		for _, c := range append(drive.Stacker(), drive.Loaded()) {
			if c != nil {
				s.det["tape.records_written"] += float64(c.Records())
			}
		}
	}
	s.det["pipeline.shard_skew"] = float64(largest) * float64(len(drives)) / float64(total)
	s.det["pipeline.drive_idle_share"] = idle / float64(len(drives))
	return total
}
