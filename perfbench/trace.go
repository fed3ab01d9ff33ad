package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/logical"
	"repro/internal/raid"
	"repro/internal/sim"
)

// span is one timed call at a layer boundary. Host times are process
// CPU time since the tracer was created; sim times are the virtual
// clock.
type span struct {
	name               string
	parent             int32 // index into Tracer.spans, -1 for none
	hostStart, hostEnd time.Duration
	simStart, simEnd   sim.Time
	self               time.Duration
}

// Tracer records spans from the benchmark's decorators. The simulator
// runs one process at a time, so host CPU time is a single timeline: the
// time between two consecutive span events is charged to the innermost
// open span of the process that raised the first of them. A process
// with no open span charges its op span (the engine call that spawned
// it); time outside every op is not traced. A layer's self time is
// then its span's duration minus the time its child spans cover, and
// the self times of an op's spans add up to the op's host time, less
// the moments before its span opens and after it closes.
type Tracer struct {
	env    *sim.Env
	epoch  time.Duration // cpuNow at creation
	last   time.Duration
	cur    int32 // span being charged, -1 = none (outside ops)
	op     int32 // open op span, -1 = none
	spans  []span
	stacks map[*sim.Proc][]int32
	counts map[string]int64

	running *sim.Proc // process of the latest event
}

func newTracer(env *sim.Env) *Tracer {
	return &Tracer{env: env, epoch: cpuNow(), cur: -1, op: -1,
		stacks: make(map[*sim.Proc][]int32), counts: make(map[string]int64)}
}

// tick charges the time since the previous event and returns now.
func (t *Tracer) tick() time.Duration {
	now := cpuNow() - t.epoch
	if t.cur >= 0 {
		t.spans[t.cur].self += now - t.last
	}
	t.last = now
	return now
}

func (t *Tracer) top(p *sim.Proc) int32 {
	if st := t.stacks[p]; len(st) > 0 {
		return st[len(st)-1]
	}
	return t.op
}

// begin opens a span named name on process p. Calls outside an op
// (set-up, verification) are not traced: begin returns -1 and end
// ignores it.
func (t *Tracer) begin(p *sim.Proc, name string) int32 {
	if t == nil || t.op < 0 {
		return -1
	}
	now := t.tick()
	t.running = p
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.top(p), hostStart: now, simStart: t.env.Now()})
	t.stacks[p] = append(t.stacks[p], id)
	t.cur = id
	t.counts[name]++
	return id
}

// end closes span id, the innermost open span of process p.
func (t *Tracer) end(p *sim.Proc, id int32) {
	if id < 0 {
		return
	}
	now := t.tick()
	t.running = p
	t.spans[id].hostEnd, t.spans[id].simEnd = now, t.env.Now()
	st := t.stacks[p]
	t.stacks[p] = st[:len(st)-1]
	t.cur = t.top(p)
}

// beginOp opens the op span every process falls back to.
func (t *Tracer) beginOp(p *sim.Proc, name string) {
	if t == nil {
		return
	}
	t.op = 0 // let begin open the op span itself
	t.op = t.begin(p, name)
	t.spans[t.op].parent = -1
}

func (t *Tracer) endOp(p *sim.Proc) {
	if t == nil {
		return
	}
	t.end(p, t.op)
	t.op = -1
	t.cur = -1
}

// selfByName sums self time per span name.
func (t *Tracer) selfByName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.name] += s.self
	}
	return out
}

// write dumps the spans as tab-separated lines: id, parent, name, host
// start/end (ns), sim start/end (ns), self (ns).
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\thost_start_ns\thost_end_ns\tsim_start_ns\tsim_end_ns\tself_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.parent, s.name,
			s.hostStart, s.hostEnd, s.simStart, s.simEnd, s.self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The decorators below time and count calls into one layer. Each one
// implements exactly the optional interfaces its callee type-asserts
// on the wrapped type, so the traced program takes the same paths as
// the untraced one: wafl probes devices for wafl.Prefetcher, the I/O
// helpers for storage.RunDevice and AsyncRunDevice, the pipelines
// sinks and sources for pipeline.ProcBinder, the engines sinks for
// dumpfmt.Syncer and the chunk writer its media for chunk.Syncer.

// tracedVolume wraps a RAID volume (raid.host_s). *raid.Volume is a
// RunDevice, an AsyncRunDevice and a Prefetcher, so the wrapper is too;
// see the volume interface.
type tracedVolume struct {
	v *raid.Volume
	t *Tracer
}

func (d *tracedVolume) NumBlocks() int { return d.v.NumBlocks() }

func (d *tracedVolume) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	p := sim.ProcFrom(ctx)
	id := d.t.begin(p, "raid")
	err := d.v.ReadBlock(ctx, bno, buf)
	d.t.end(p, id)
	return err
}

func (d *tracedVolume) WriteBlock(ctx context.Context, bno int, data []byte) error {
	p := sim.ProcFrom(ctx)
	id := d.t.begin(p, "raid")
	err := d.v.WriteBlock(ctx, bno, data)
	d.t.end(p, id)
	return err
}

func (d *tracedVolume) ReadRun(ctx context.Context, bno, n int, buf []byte) error {
	p := sim.ProcFrom(ctx)
	id := d.t.begin(p, "raid")
	err := d.v.ReadRun(ctx, bno, n, buf)
	d.t.end(p, id)
	return err
}

func (d *tracedVolume) WriteRun(ctx context.Context, bno, n int, buf []byte) error {
	p := sim.ProcFrom(ctx)
	id := d.t.begin(p, "raid")
	err := d.v.WriteRun(ctx, bno, n, buf)
	d.t.end(p, id)
	return err
}

func (d *tracedVolume) ReadRunAsync(ctx context.Context, bno, n int, buf []byte) (sim.Time, error) {
	p := sim.ProcFrom(ctx)
	id := d.t.begin(p, "raid")
	done, err := d.v.ReadRunAsync(ctx, bno, n, buf)
	d.t.end(p, id)
	return done, err
}

func (d *tracedVolume) Prefetch(ctx context.Context, bno int) {
	p := sim.ProcFrom(ctx)
	id := d.t.begin(p, "raid")
	d.v.Prefetch(ctx, bno)
	d.t.end(p, id)
}

func (d *tracedVolume) Flush(ctx context.Context) {
	p := sim.ProcFrom(ctx)
	id := d.t.begin(p, "raid")
	d.v.Flush(ctx)
	d.t.end(p, id)
}

// tracedTapeSink wraps a tape drive sink (tape.write_s). DriveSink is a
// pipeline.ProcBinder and no dumpfmt.Syncer.
type tracedTapeSink struct {
	s *logical.DriveSink
	t *Tracer
}

func (w *tracedTapeSink) WriteRecord(data []byte) error {
	p := w.s.Proc
	id := w.t.begin(p, "tape.write")
	err := w.s.WriteRecord(data)
	w.t.end(p, id)
	return err
}

func (w *tracedTapeSink) NextVolume() error {
	p := w.s.Proc
	id := w.t.begin(p, "tape.write")
	err := w.s.NextVolume()
	w.t.end(p, id)
	return err
}

func (w *tracedTapeSink) BindProc(p *sim.Proc) *sim.Proc { return w.s.BindProc(p) }

// tracedTapeSource wraps a tape drive source (tape.read_s); a
// pipeline.ProcBinder like the sink.
type tracedTapeSource struct {
	s *logical.DriveSource
	t *Tracer
}

func (r *tracedTapeSource) ReadRecord() ([]byte, error) {
	p := r.s.Proc
	id := r.t.begin(p, "tape.read")
	rec, err := r.s.ReadRecord()
	r.t.end(p, id)
	return rec, err
}

func (r *tracedTapeSource) BindProc(p *sim.Proc) *sim.Proc { return r.s.BindProc(p) }

// procRef names the process a chunk-layer call runs on; the dedup
// workload points it at each day's dump process.
type procRef struct{ p *sim.Proc }

// tracedChunkWriter wraps the dedup writer as the dump's sink
// (chunk.self_s). *chunk.Writer is a dumpfmt.Syncer.
type tracedChunkWriter struct {
	w    *chunk.Writer
	t    *Tracer
	proc *procRef
}

func (w *tracedChunkWriter) WriteRecord(data []byte) error {
	id := w.t.begin(w.proc.p, "chunk.writer")
	err := w.w.WriteRecord(data)
	w.t.end(w.proc.p, id)
	return err
}

func (w *tracedChunkWriter) NextVolume() error {
	id := w.t.begin(w.proc.p, "chunk.writer")
	err := w.w.NextVolume()
	w.t.end(w.proc.p, id)
	return err
}

func (w *tracedChunkWriter) Sync() error {
	id := w.t.begin(w.proc.p, "chunk.writer")
	err := w.w.Sync()
	w.t.end(w.proc.p, id)
	return err
}

func (w *tracedChunkWriter) close() (chunk.Manifest, error) {
	id := w.t.begin(w.proc.p, "chunk.writer")
	m, err := w.w.Close()
	w.t.end(w.proc.p, id)
	return m, err
}

// tracedChunkReader wraps the dedup reader as the restore's source
// (chunk.reader_s).
type tracedChunkReader struct {
	r    *chunk.Reader
	t    *Tracer
	proc *procRef
}

func (r *tracedChunkReader) ReadRecord() ([]byte, error) {
	id := r.t.begin(r.proc.p, "chunk.reader")
	rec, err := r.r.ReadRecord()
	r.t.end(r.proc.p, id)
	return rec, err
}

// tracedIndex wraps the catalog as the chunk index (catalog.lookup_s,
// catalog.commit_s).
type tracedIndex struct {
	c    *catalog.Catalog
	t    *Tracer
	proc *procRef
}

func (x *tracedIndex) LookupChunk(h chunk.Hash) (chunk.Entry, bool) {
	id := x.t.begin(x.proc.p, "catalog.lookup")
	e, ok := x.c.LookupChunk(h)
	x.t.end(x.proc.p, id)
	return e, ok
}

func (x *tracedIndex) CommitChunks(entries []chunk.Entry) error {
	id := x.t.begin(x.proc.p, "catalog.commit")
	err := x.c.CommitChunks(entries)
	x.t.end(x.proc.p, id)
	return err
}

// tracedMedia wraps chunk drive media (media.append_s, media.read_s).
// *chunk.DriveMedia is no chunk.Syncer, so neither is the wrapper.
type tracedMedia struct {
	m    *chunk.DriveMedia
	t    *Tracer
	proc *procRef
}

func (m *tracedMedia) Append(data []byte) (chunk.Loc, error) {
	id := m.t.begin(m.proc.p, "media.append")
	loc, err := m.m.Append(data)
	m.t.end(m.proc.p, id)
	return loc, err
}

func (m *tracedMedia) ReadAt(loc chunk.Loc) ([]byte, error) {
	id := m.t.begin(m.proc.p, "media.read")
	data, err := m.m.ReadAt(loc)
	m.t.end(m.proc.p, id)
	return data, err
}
