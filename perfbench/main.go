// Command perfbench is the repository's end-to-end benchmark. It
// assembles filers and a serve fleet from the public package APIs,
// runs one workload for a fixed host-time budget, checks every output
// and prints each metric with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured
// untraced; with -trace 1 they are the per-layer ones, taken from
// traced cycles run alongside untraced ones.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload logical-1drive --seed 1999 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seconds 15
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// sample is what one timed cycle measured.
type sample struct {
	dump, restore         op    // summed over the cycle's dump and restore ops
	dumpData, restoreData int64 // live data bytes each phase moved

	ops    int      // dumps, restores, verifications and sessions attempted
	failed []string // one line per failed op

	// det holds the cycle's simulated-time metrics and layer counts.
	// They depend only on the seed, so they must repeat exactly from
	// cycle to cycle and between traced and untraced runs.
	det map[string]float64
	// layers holds traced host times per layer; nil when untraced.
	layers map[string]float64
}

// check counts one verification and records its failure.
func (s *sample) check(what string, err error) {
	s.ops++
	if err != nil {
		s.failed = append(s.failed, fmt.Sprintf("%s: %v", what, err))
	}
}

// instance is one set-up workload, ready to run timed cycles.
type instance interface {
	cycle(ctx context.Context) *sample
	tracer() *Tracer
	release() // drops references so the next set-up starts from a clean heap
}

// workloadDef names a workload, its default seed and how to set it up.
type workloadDef struct {
	name string
	seed int64
	// cycles is how many timed cycles run on one set-up. Only the
	// first is checked for exact repetition of its det metrics; later
	// ones start from warm caches and moved disk heads.
	cycles int
	// setups is how many times each set-up is timed; all but the last
	// are released unused. It repeats a set-up too short to time alone.
	setups int
	setup  func(ctx context.Context, seed int64, traced bool, parts map[string]time.Duration) (instance, error)
}

var workloads = []workloadDef{
	{name: "logical-1drive", seed: 1999, cycles: 3, setups: 1, setup: setupLogical},
	{name: "physical-4drive", seed: 1999, cycles: 8, setups: 1, setup: setupPhysical},
	{name: "dedup-week", seed: 7, cycles: 1, setups: 1, setup: setupDedup},
	{name: "serve-fleet", seed: 1, cycles: 1, setups: 15, setup: setupServe},
}

// run is everything one invocation measured.
type run struct {
	setups   []time.Duration
	parts    []map[string]time.Duration
	heaps    []float64 // live heap after each set-up's cycles, MB
	heapRate []float64 // the same per data byte its cycles dumped
	samples  []*sample // untraced cycles
	traced   []*sample
	attempts int
	failures []string
	ref      map[string]float64 // det of the first cycle

	lastTracer *Tracer
}

func (r *run) add(s *sample, first bool) {
	r.attempts += s.ops
	r.failures = append(r.failures, s.failed...)
	if !first {
		return
	}
	if r.ref == nil {
		r.ref = s.det
		return
	}
	if !reflect.DeepEqual(r.ref, s.det) {
		r.attempts++
		r.failures = append(r.failures, "deterministic metrics differ between cycles: "+detDiff(r.ref, s.det))
	}
}

func detDiff(a, b map[string]float64) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	return "none"
}

// measure sets the workload up and runs its cycles until the budget is
// spent and at least three set-ups ran. Traced, set-ups alternate
// between untraced and traced, one cycle each, and the run ends on a
// complete pair so the two can be compared.
func measure(ctx context.Context, w workloadDef, seed int64, budget time.Duration, traced bool) *run {
	r := &run{}
	start := time.Now()
	for i := 0; ; i++ {
		withTrace := traced && i%2 == 1
		var inst instance
		var parts map[string]time.Duration
		for k := 0; k < w.setups; k++ {
			if inst != nil {
				inst.release()
			}
			parts = make(map[string]time.Duration)
			t0 := cpuNow()
			var err error
			inst, err = w.setup(ctx, seed, withTrace, parts)
			if err != nil {
				r.attempts++
				r.failures = append(r.failures, "set-up: "+err.Error())
				return r
			}
			r.setups = append(r.setups, cpuNow()-t0)
		}
		r.parts = append(r.parts, parts)
		cycles := w.cycles
		if traced {
			cycles = 1
		}
		for c := 0; c < cycles; c++ {
			s := inst.cycle(ctx)
			if tr := inst.tracer(); tr != nil {
				s.layers = layerTimes(tr, s)
				r.traced = append(r.traced, s)
				r.lastTracer = tr
			} else {
				r.samples = append(r.samples, s)
			}
			r.add(s, c == 0)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heaps = append(r.heaps, float64(ms.HeapAlloc)/1e6)
		last := r.samples
		if withTrace {
			last = r.traced
		}
		if data := last[len(last)-1].dumpData; data > 0 {
			r.heapRate = append(r.heapRate, float64(ms.HeapAlloc)/float64(data))
		}
		inst.release()
		runtime.GC() // so the next set-up does not pay for this one's garbage
		if i >= 2 && time.Since(start) >= budget && (!traced || withTrace) {
			return r
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: logical-1drive, physical-4drive, dedup-week, serve-fleet, or all of them")
	seed := flag.Int64("seed", 0, "input seed (0 = the workload's default seed)")
	seconds := flag.Int("seconds", 15, "wall seconds to spend measuring")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from traced cycles")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll())
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = w.seed
	}
	// The simulator runs one goroutine at a time. A second processor
	// would only host the collector's idle-priority mark workers, whose
	// CPU use rises and falls with what else the machine runs; it
	// doubled serve-fleet's CPU time. With one, host CPU time is the
	// program's work plus its share of collection.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	r := measure(ctx, *w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)

	var metrics map[string]float64
	var units []metric
	if *trace == 1 {
		metrics, units = perLayerMetrics(r), perLayer
		if len(r.traced) > 0 {
			if err := r.lastTracer.write(fmt.Sprintf(".bench_build/spans/%s-seed%d.tsv", w.name, *seed)); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			}
		}
	} else {
		metrics, units = endToEndMetrics(r), endToEnd
	}
	report(os.Stdout, w.name, *seed, r, metrics, units)
	correct := len(r.failures) == 0 && len(r.samples)+len(r.traced) > 0
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, r.attempts, len(r.failures), make(map[string]jsonMetric)}
	for _, m := range units {
		v := metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) { // only after a failed op
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// runAll runs every workload, each in a fresh process with this one's
// other flags, and returns 1 if any of them failed.
func runAll() int {
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
