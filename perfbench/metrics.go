package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported on
// every workload from untraced cycles. Units ending in sim_s, and the
// GB/h rates, are simulated time of the modelled filer; every other
// time is host CPU time of this process (see cpuNow).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"dump_mb_per_s", "MB/s"},
	{"cycle_mb_per_s", "MB/s"},
	{"alloc_bytes_per_byte", "B/B"},
	{"live_heap_per_data_byte", "B/B"},
	{"dump_sim_gbph", "GB/h"},
	{"cycle_sim_gbph", "GB/h"},
	{"media_bytes_per_data_byte", "B/B"},
}

// reportOnly are end-to-end metrics printed in the report, not in the
// JSON line: some workloads lack them (serve-fleet restores nothing,
// only serve-fleet has sessions and tenants), error_rate is 0 when all
// is well, and live_heap_mb grows with the seed's dataset, which
// live_heap_per_data_byte factors out.
var reportOnly = []metric{
	{"live_heap_mb", "MB"},
	{"restore_mb_per_s", "MB/s"},
	{"restore_sim_gbph", "GB/h"},
	{"dump_sim_cpu_pct", "%"},
	{"turnaround_p50_sim_s", "sim_s"},
	{"turnaround_p90_sim_s", "sim_s"},
	{"jain_fairness", "ratio"},
	{"pool_ceiling_gbph", "GB/h"},
	{"error_rate", "ratio"},
}

// perLayer are the traced run's metrics, reported on every workload;
// a layer a workload does not run reads 0.
var perLayer = []metric{
	{"workload.generate_s", "s"},
	{"workload.age_s", "s"},
	{"wafl.cp_s", "s"},
	{"wafl.cache_hit_ratio", "ratio"},
	{"logical.self_s", "s"},
	{"nvram.appends", "count"},
	{"nvram.busy_sim_s", "sim_s"},
	{"raid.host_s", "s"},
	{"raid.read_mb", "MB"},
	{"raid.write_mb", "MB"},
	{"raid.disk_busy_sim_s", "sim_s"},
	{"raid.util", "ratio"},
	{"raid.retries", "count"},
	{"raid.reconstructs", "count"},
	{"vdev.seeks_per_mb", "1/MB"},
	{"tape.write_s", "s"},
	{"tape.read_s", "s"},
	{"tape.records_written", "count"},
	{"tape.records_read", "count"},
	{"tape.busy_sim_s", "sim_s"},
	{"tape.util", "ratio"},
	{"physical.self_s", "s"},
	{"pipeline.shard_skew", "ratio"},
	{"pipeline.drive_idle_share", "ratio"},
	{"sim.cpu_busy_sim_s", "sim_s"},
	{"chunk.self_s", "s"},
	{"chunk.reader_s", "s"},
	{"chunk.chunks", "count"},
	{"chunk.dup_share", "ratio"},
	{"chunk.compressed_share", "ratio"},
	{"chunk.stored_per_raw", "ratio"},
	{"catalog.lookups", "count"},
	{"catalog.lookup_s", "s"},
	{"catalog.commit_s", "s"},
	{"catalog.append_s", "s"},
	{"media.append_s", "s"},
	{"media.read_s", "s"},
	{"ndmp.handle_s", "s"},
	{"ndmp.client_s", "s"},
	{"ndmp.frames_per_record", "ratio"},
	{"ndmp.window_stalls", "count"},
	{"ndmp.replayed_share", "ratio"},
	{"ndmp.reconnects", "count"},
	{"sched.admit_s", "s"},
	{"sched.wait_polls_per_grant", "ratio"},
	{"sched.throttled", "count"},
	{"sched.rejected", "count"},
	{"sched.expired", "count"},
	{"attrib.unattributed_s", "s"},
	{"attrib.trace_overhead", "ratio"},
}

// spanLayer maps span names to the per-layer self-time metric they
// add to. An op span's self time is its engine's: the engine code and
// everything below it that is not wrapped. Spans not listed (the serve
// fleet's own op) count as unattributed.
var spanLayer = map[string]string{
	"logical.dump":     "logical.self_s",
	"logical.restore":  "logical.self_s",
	"physical.dump":    "physical.self_s",
	"physical.restore": "physical.self_s",
	"raid":             "raid.host_s",
	"tape.write":       "tape.write_s",
	"tape.read":        "tape.read_s",
	"chunk.writer":     "chunk.self_s",
	"chunk.reader":     "chunk.reader_s",
	"catalog.lookup":   "catalog.lookup_s",
	"catalog.commit":   "catalog.commit_s",
	"catalog.append":   "catalog.append_s",
	"media.append":     "media.append_s",
	"media.read":       "media.read_s",
	"ndmp.client":      "ndmp.client_s",
	"ndmp.handle":      "ndmp.handle_s",
	"sched.admit":      "sched.admit_s",
}

// layerTimes turns a traced cycle's spans into per-layer host seconds
// and call counts.
func layerTimes(tr *Tracer, s *sample) map[string]float64 {
	out := make(map[string]float64)
	var attributed time.Duration
	for name, self := range tr.selfByName() {
		if m, ok := spanLayer[name]; ok {
			out[m] += self.Seconds()
			attributed += self
		}
	}
	out["attrib.unattributed_s"] = (s.dump.host + s.restore.host - attributed).Seconds()
	out["tape.records_read"] = float64(tr.counts["tape.read"] + tr.counts["media.read"])
	out["catalog.lookups"] = float64(tr.counts["catalog.lookup"])
	return out
}

// finish derives a cycle's simulated end-to-end metrics from its ops.
// media is the bytes the dumps wrote to tape or chunk media, cpu the
// modelled CPU busy time during the dumps.
func (s *sample) finish(media int64, cpu time.Duration) {
	gbph := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / 1e9 / d.Hours()
	}
	s.det["dump_sim_gbph"] = gbph(s.dumpData, s.dump.sim)
	s.det["cycle_sim_gbph"] = gbph(s.dumpData+s.restoreData, s.dump.sim+s.restore.sim)
	if s.restoreData > 0 {
		s.det["restore_sim_gbph"] = gbph(s.restoreData, s.restore.sim)
	}
	if cpu > 0 {
		s.det["dump_sim_cpu_pct"] = 100 * cpu.Seconds() / s.dump.sim.Seconds()
		s.det["sim.cpu_busy_sim_s"] = cpu.Seconds()
	}
	s.det["media_bytes_per_data_byte"] = float64(media) / float64(s.dumpData)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func each(ss []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEndMetrics takes the median of each host metric over the run's
// untraced cycles; simulated metrics repeat exactly, so they come from
// the first cycle.
func endToEndMetrics(r *run) map[string]float64 {
	m := map[string]float64{
		"setup_s":                 median(seconds(r.setups)),
		"live_heap_mb":            median(r.heaps),
		"live_heap_per_data_byte": median(r.heapRate),
		"dump_mb_per_s": median(each(r.samples, func(s *sample) float64 {
			return float64(s.dumpData) / 1e6 / s.dump.host.Seconds()
		})),
		"cycle_mb_per_s": median(each(r.samples, func(s *sample) float64 {
			return float64(s.dumpData+s.restoreData) / 1e6 / (s.dump.host + s.restore.host).Seconds()
		})),
		"alloc_bytes_per_byte": median(each(r.samples, func(s *sample) float64 {
			return float64(s.dump.alloc+s.restore.alloc) / float64(s.dumpData+s.restoreData)
		})),
	}
	if withRestore := r.samples; len(withRestore) > 0 && withRestore[0].restoreData > 0 {
		m["restore_mb_per_s"] = median(each(r.samples, func(s *sample) float64 {
			return float64(s.restoreData) / 1e6 / s.restore.host.Seconds()
		}))
	}
	for _, k := range []string{"dump_sim_gbph", "cycle_sim_gbph", "media_bytes_per_data_byte",
		"restore_sim_gbph", "dump_sim_cpu_pct", "turnaround_p50_sim_s", "turnaround_p90_sim_s",
		"jain_fairness", "pool_ceiling_gbph"} {
		if v, ok := r.ref[k]; ok {
			m[k] = v
		}
	}
	m["error_rate"] = errorRate(r)
	return m
}

// perLayerMetrics reports the traced cycles: host times are means, so
// the layer shares of a cycle still add up to its host time; counts
// and simulated times are the first cycle's, which every cycle
// repeats.
func perLayerMetrics(r *run) map[string]float64 {
	m := make(map[string]float64)
	for _, l := range perLayer {
		m[l.name] = r.ref[l.name]
	}
	for _, k := range []string{"workload.generate_s", "workload.age_s", "wafl.cp_s"} {
		m[k] = median(partSeconds(r.parts, k))
	}
	if len(r.traced) > 0 {
		for name := range r.traced[0].layers {
			m[name] = mean(each(r.traced, func(s *sample) float64 { return s.layers[name] }))
		}
	}
	host := func(s *sample) float64 { return (s.dump.host + s.restore.host).Seconds() }
	if u := median(each(r.samples, host)); u > 0 {
		m["attrib.trace_overhead"] = median(each(r.traced, host)) / u
	}
	m["error_rate"] = errorRate(r)
	return m
}

func errorRate(r *run) float64 {
	if r.attempts == 0 {
		return 1
	}
	return float64(len(r.failures)) / float64(r.attempts)
}

func partSeconds(parts []map[string]time.Duration, k string) []float64 {
	out := make([]float64, len(parts))
	for i, p := range parts {
		out[i] = p[k].Seconds()
	}
	return out
}

// report prints the run in human-readable form: every metric with its
// unit, then each failure.
func report(w io.Writer, name string, seed int64, r *run, m map[string]float64, units []metric) {
	fmt.Fprintf(w, "perfbench %s seed %d: %d set-ups, %d untraced + %d traced cycles, %d ops attempted, %d failed\n",
		name, seed, len(r.setups), len(r.samples), len(r.traced), r.attempts, len(r.failures))
	show := append(append([]metric(nil), units...), reportOnly...)
	for _, u := range show {
		if v, ok := m[u.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", u.name, v, u.unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
