// Package bench is the measurement harness that regenerates the
// paper's evaluation (§5): basic backup/restore to one tape (Tables 2
// and 3), parallel backup/restore to two and four tapes (Tables 4 and
// 5), the concurrent-volume experiment and the scaling summary of
// §5.1–5.3, plus the ablations called out in DESIGN.md. Results carry
// elapsed virtual time, throughput, and per-stage CPU/disk/tape
// utilization in the same shape the paper reports.
package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/tape"
)

// Meters knows how to sample every resource of an experiment. Samples
// are read through an obs.Registry: each resource registers its pull
// collectors once, and Take aggregates the registry's families, so the
// same numbers the benchmark reports are exported by backupctl stats.
type Meters struct {
	Env   *sim.Env
	CPU   *sim.Station
	Vols  []*raid.Volume
	Tapes []*tape.Drive

	reg  *obs.Registry
	seen map[any]bool
}

// Registry returns the registry the meters sample through, creating it
// and registering every known resource on first use. Resources
// appended to Vols/Tapes after a sample (parallel experiments grow
// mid-run) are picked up on the next call.
func (m *Meters) Registry() *obs.Registry {
	if m.reg == nil {
		m.reg = obs.NewRegistry()
	}
	m.syncRegistry()
	return m.reg
}

func (m *Meters) syncRegistry() {
	if m.seen == nil {
		m.seen = make(map[any]bool)
	}
	if m.CPU != nil && !m.seen[m.CPU] {
		m.seen[m.CPU] = true
		cpu := m.CPU
		m.reg.RegisterFunc("sim_cpu_busy_seconds", obs.KindGauge, nil,
			func() float64 { return cpu.Busy().Seconds() })
	}
	for _, v := range m.Vols {
		if !m.seen[v] {
			m.seen[v] = true
			v.RegisterMetrics(m.reg)
		}
	}
	for _, t := range m.Tapes {
		if !m.seen[t] {
			m.seen[t] = true
			t.RegisterMetrics(m.reg)
		}
	}
}

// busyDuration converts a busy-seconds gauge back to a duration.
// Round, not truncate: the float trip through the registry can land a
// hair under the exact nanosecond count.
func busyDuration(sec float64) time.Duration {
	return time.Duration(math.Round(sec * 1e9))
}

// Sample is a point-in-time reading of all resources.
type Sample struct {
	T                   sim.Time
	CPUBusy             time.Duration
	DiskRead, DiskWrite int64
	DiskBusy            time.Duration
	TapeIO              int64
	TapeBusy            time.Duration
}

// Take reads all meters now, through the registry.
func (m *Meters) Take() Sample {
	reg := m.Registry()
	return Sample{
		T:         m.Env.Now(),
		CPUBusy:   busyDuration(reg.Sum("sim_cpu_busy_seconds")),
		DiskRead:  int64(reg.Sum("raid_read_bytes_total")),
		DiskWrite: int64(reg.Sum("raid_written_bytes_total")),
		DiskBusy:  busyDuration(reg.Sum("raid_disk_busy_seconds")),
		TapeIO:    int64(reg.Sum("tape_written_bytes_total") + reg.Sum("tape_read_bytes_total")),
		TapeBusy:  busyDuration(reg.Sum("tape_busy_seconds")),
	}
}

// Stage is one measured phase of an operation.
type Stage struct {
	Name  string
	Begin Sample
	End   Sample

	ended bool
}

// Elapsed returns the stage's wall (virtual) time.
func (s *Stage) Elapsed() time.Duration { return s.End.T - s.Begin.T }

// CPUUtil returns the fraction of the stage the CPU was busy.
func (s *Stage) CPUUtil() float64 {
	if s.Elapsed() <= 0 {
		return 0
	}
	return float64(s.End.CPUBusy-s.Begin.CPUBusy) / float64(s.Elapsed())
}

// DiskMBps returns aggregate disk traffic over the stage in MB/s.
func (s *Stage) DiskMBps() float64 {
	if s.Elapsed() <= 0 {
		return 0
	}
	bytes := (s.End.DiskRead - s.Begin.DiskRead) + (s.End.DiskWrite - s.Begin.DiskWrite)
	return float64(bytes) / s.Elapsed().Seconds() / (1 << 20)
}

// TapeMBps returns aggregate tape traffic over the stage in MB/s.
func (s *Stage) TapeMBps() float64 {
	if s.Elapsed() <= 0 {
		return 0
	}
	return float64(s.End.TapeIO-s.Begin.TapeIO) / s.Elapsed().Seconds() / (1 << 20)
}

// Recorder times an operation's stages over Meters. Stages are keyed
// by name: the first Begin of a name opens its window and a later End
// only moves the window's end forward, so one recorder over several
// concurrent streams yields one row per stage, from the earliest begin
// to the latest end — the way the paper reports parallel restores.
type Recorder struct {
	M      *Meters
	Stages []*Stage
}

// NewRecorder creates a recorder over m.
func NewRecorder(m *Meters) *Recorder { return &Recorder{M: m} }

// phaseStages maps the engines' phase spans to the paper's stage names.
var phaseStages = map[string]string{
	"logical.phase12_map":                  "Mapping files and directories",
	"logical.phase3_dirs":                  "Dumping directories",
	"logical.phase4_files":                 "Dumping files",
	"logical.reading_directories":          "Reading directories",
	"logical.creating_files":               "Creating files",
	"logical.filling_in_data":              "Filling in data",
	"logical.setting_directory_attributes": "Setting directory attributes",
}

// Trace returns ctx carrying a fresh tracer whose phase spans drive
// the recorder's Begin and End; other spans are ignored. It replaces
// any tracer already in ctx.
func (r *Recorder) Trace(ctx context.Context) context.Context {
	tr := obs.NewTracer()
	tr.OnSpan = func(name string, ended bool, _ time.Duration) {
		stage, ok := phaseStages[name]
		switch {
		case !ok:
		case ended:
			r.End(stage)
		default:
			r.Begin(stage)
		}
	}
	return obs.WithTracer(ctx, tr)
}

func (r *Recorder) stage(name string) *Stage {
	for _, s := range r.Stages {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Begin opens the named stage unless it has already begun.
func (r *Recorder) Begin(name string) {
	if r.stage(name) == nil {
		r.Stages = append(r.Stages, &Stage{Name: name, Begin: r.M.Take()})
	}
}

// End closes the named stage now, unless an earlier End closed it no
// earlier in virtual time.
func (r *Recorder) End(name string) {
	s := r.stage(name)
	if s != nil && (!s.ended || r.M.Env.Now() > s.End.T) {
		s.End, s.ended = r.M.Take(), true
	}
}

// OpResult summarizes one measured operation.
type OpResult struct {
	Name    string
	Elapsed time.Duration
	Bytes   int64 // payload moved (tape stream size)
	Stages  []*Stage
	CPUUtil float64
}

// MBps returns payload throughput in MB/s.
func (o *OpResult) MBps() float64 {
	if o.Elapsed <= 0 {
		return 0
	}
	return float64(o.Bytes) / o.Elapsed.Seconds() / (1 << 20)
}

// GBph returns payload throughput in GB/hour.
func (o *OpResult) GBph() float64 {
	if o.Elapsed <= 0 {
		return 0
	}
	return float64(o.Bytes) / (1 << 30) / o.Elapsed.Hours()
}

// summarize builds an OpResult over a recorder's stages, from the
// earliest begin to the latest end.
func summarize(name string, rec *Recorder, bytes int64) OpResult {
	op := OpResult{Name: name, Bytes: bytes, Stages: rec.Stages}
	if len(rec.Stages) == 0 {
		return op
	}
	total := *rec.Stages[0]
	for _, s := range rec.Stages[1:] {
		if s.Begin.T < total.Begin.T {
			total.Begin = s.Begin
		}
		if s.End.T >= total.End.T {
			total.End = s.End
		}
	}
	op.Elapsed, op.CPUUtil = total.Elapsed(), total.CPUUtil()
	return op
}

// FormatDuration renders a duration the way the paper does: hours with
// a decimal for long phases, minutes or seconds for short ones.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.2f hours", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1f minutes", d.Minutes())
	default:
		return fmt.Sprintf("%.1f seconds", d.Seconds())
	}
}

// FormatOpsTable renders Table 2-style rows.
func FormatOpsTable(title string, ops []OpResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Operation\tElapsed time\tMBytes/second\tGBytes/hour\tCPU")
	for _, o := range ops {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.1f\t%.0f%%\n", o.Name, FormatDuration(o.Elapsed), o.MBps(), o.GBph(), 100*o.CPUUtil)
	}
	w.Flush()
	return b.String()
}

// FormatStagesTable renders Table 3-style rows (per stage, with CPU
// utilization).
func FormatStagesTable(title string, groups map[string][]*Stage, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Stage\tTime spent\tCPU Utilization")
	for _, g := range order {
		fmt.Fprintf(w, "%s\t\t\n", g)
		for _, s := range groups[g] {
			fmt.Fprintf(w, "  %s\t%s\t%.0f%%\n", s.Name, FormatDuration(s.Elapsed()), 100*s.CPUUtil())
		}
	}
	w.Flush()
	return b.String()
}

// FormatParallelTable renders Table 4/5-style rows (per stage with CPU
// and disk/tape rates).
func FormatParallelTable(title string, groups map[string][]*Stage, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Operation\tElapsed time\tCPU Utilization\tDisk MB/s\tTape MB/s")
	for _, g := range order {
		fmt.Fprintf(w, "%s\t\t\t\t\n", g)
		for _, s := range groups[g] {
			fmt.Fprintf(w, "  %s\t%s\t%.0f%%\t%.2f\t%.2f\n",
				s.Name, FormatDuration(s.Elapsed()), 100*s.CPUUtil(), s.DiskMBps(), s.TapeMBps())
		}
	}
	w.Flush()
	return b.String()
}
