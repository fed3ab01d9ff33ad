package logical

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/dumpfmt"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// memSink collects a shard stream's records for byte comparison and
// replay.
type memSink struct{ recs [][]byte }

func (s *memSink) WriteRecord(data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.recs = append(s.recs, cp)
	return nil
}

func (s *memSink) NextVolume() error { return errors.New("memSink: single volume") }

func (s *memSink) bytes() []byte {
	var b []byte
	for _, r := range s.recs {
		b = append(b, r...)
	}
	return b
}

type memSource struct {
	recs [][]byte
	pos  int
}

func (s *memSink) source() *memSource { return &memSource{recs: s.recs} }

func (s *memSource) ReadRecord() ([]byte, error) {
	if s.pos >= len(s.recs) {
		return nil, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

func parallelLogicalFS(t *testing.T, seed int64) (*wafl.FS, *wafl.View) {
	t.Helper()
	src := newFS(t, 16384)
	if _, err := workload.Generate(ctx, src, workload.Spec{
		Seed: seed, Files: 40, DirFanout: 6, MeanFileSize: 12 << 10,
		Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	sv, _ := src.SnapshotView("s")
	return src, sv
}

// TestLogicalParallelMatchesShardedStreams proves the byte-identity
// contract: one Sinks dump with parallel readers writes, per shard,
// exactly the stream that shard writes when it is dumped alone (Sinks
// with only entry k set) on the writer-staged single-reader path.
// Parallelism changes only the clock.
func TestLogicalParallelMatchesShardedStreams(t *testing.T) {
	_, sv := parallelLogicalFS(t, 71)
	const nShards = 4

	// Reference: one dump per shard, every other entry nil.
	want := make([]*memSink, nShards)
	for k := 0; k < nShards; k++ {
		want[k] = &memSink{}
		sinks := make([]dumpfmt.Sink, nShards)
		sinks[k] = want[k]
		stats, err := Dump(ctx, DumpOptions{
			View: sv, Sinks: sinks, Label: "par", ReadAhead: 8, CheckpointEvery: 3,
		})
		if err != nil {
			t.Fatalf("shard %d reference dump: %v", k, err)
		}
		for j, r := range stats.ShardResults {
			if j != k && !reflect.DeepEqual(r, ShardResult{}) {
				t.Fatalf("skipped shard %d has result %+v, want zero", j, r)
			}
		}
		if r := stats.ShardResults[k]; r.Shard != k || r.FilesDumped == 0 {
			t.Fatalf("shard %d alone: result %+v", k, r)
		}
	}

	// One parallel invocation drives all four streams.
	sinks := make([]dumpfmt.Sink, nShards)
	got := make([]*memSink, nShards)
	for k := range sinks {
		got[k] = &memSink{}
		sinks[k] = got[k]
	}
	stats, err := Dump(ctx, DumpOptions{
		View: sv, Sinks: sinks, Label: "par", ReadAhead: 8,
		Readers: 3, CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatalf("parallel dump: %v", err)
	}

	if len(stats.ShardResults) != nShards {
		t.Fatalf("ShardResults = %d entries, want %d", len(stats.ShardResults), nShards)
	}
	files, bytes := 0, int64(0)
	for k, r := range stats.ShardResults {
		if r.Err != nil {
			t.Fatalf("shard %d: %v", k, r.Err)
		}
		files += r.FilesDumped
		bytes += r.BytesWritten
	}
	if files != stats.FilesDumped || bytes != stats.BytesWritten {
		t.Fatalf("shard sums files=%d bytes=%d != totals files=%d bytes=%d",
			files, bytes, stats.FilesDumped, stats.BytesWritten)
	}
	if stats.FilesDumped == 0 {
		t.Fatal("parallel dump dumped no files")
	}

	for k := 0; k < nShards; k++ {
		w, g := want[k].bytes(), got[k].bytes()
		if string(w) != string(g) {
			t.Fatalf("shard %d stream differs: alone %d bytes, parallel %d bytes", k, len(w), len(g))
		}
	}
}

// TestLogicalSinkReadersByteIdentical: Readers applies to a Sink dump
// too, and the stream does not depend on it.
func TestLogicalSinkReadersByteIdentical(t *testing.T) {
	_, sv := parallelLogicalFS(t, 75)
	var streams [2]*memSink
	for i, readers := range []int{1, 3} {
		streams[i] = &memSink{}
		stats, err := Dump(ctx, DumpOptions{
			View: sv, Sink: streams[i], Label: "rd", ReadAhead: 8,
			Readers: readers, CheckpointEvery: 4,
		})
		if err != nil {
			t.Fatalf("readers %d: %v", readers, err)
		}
		if len(stats.ShardResults) != 1 || stats.ShardResults[0].FilesDumped != stats.FilesDumped {
			t.Fatalf("readers %d: ShardResults %+v for %d files", readers, stats.ShardResults, stats.FilesDumped)
		}
	}
	if a, b := streams[0].bytes(), streams[1].bytes(); string(a) != string(b) {
		t.Fatalf("Sink stream differs: readers 1 %d bytes, readers 3 %d bytes", len(a), len(b))
	}
}

// TestLogicalRejectsBadSinkSets: a dump needs at least one stream, and
// the single-stream and sharded spellings do not mix.
func TestLogicalRejectsBadSinkSets(t *testing.T) {
	_, sv := parallelLogicalFS(t, 76)
	for name, o := range map[string]DumpOptions{
		"no sink":        {View: sv},
		"all-nil Sinks":  {View: sv, Sinks: make([]dumpfmt.Sink, 3)},
		"Sink and Sinks": {View: sv, Sink: &memSink{}, Sinks: []dumpfmt.Sink{&memSink{}}},
		"Resume on Sinks": {View: sv, Sinks: []dumpfmt.Sink{&memSink{}},
			Resume: &Checkpoint{Shard: 0, Shards: 1}},
		"ResumeShards on Sink": {View: sv, Sink: &memSink{},
			ResumeShards: []*Checkpoint{{Shard: 0, Shards: 1}}},
		"ResumeShards length": {View: sv, Sinks: []dumpfmt.Sink{&memSink{}, &memSink{}},
			ResumeShards: []*Checkpoint{nil}},
		"wrong shard": {View: sv, Sinks: []dumpfmt.Sink{nil, &memSink{}},
			ResumeShards: []*Checkpoint{nil, {Shard: 0, Shards: 2}}},
	} {
		if _, err := Dump(ctx, o); err == nil {
			t.Errorf("%s: dump accepted", name)
		}
	}
}

// TestLogicalParallelRestoreOrderIndependence: each shard stream is
// self-contained (full maps, all directories), so restore may apply
// the set in any order and converge to the same tree.
func TestLogicalParallelRestoreOrderIndependence(t *testing.T) {
	_, sv := parallelLogicalFS(t, 72)
	const nShards = 4

	sinks := make([]dumpfmt.Sink, nShards)
	streams := make([]*memSink, nShards)
	for k := range sinks {
		streams[k] = &memSink{}
		sinks[k] = streams[k]
	}
	if _, err := Dump(ctx, DumpOptions{
		View: sv, Sinks: sinks, Label: "perm", ReadAhead: 8, Readers: 2,
	}); err != nil {
		t.Fatalf("parallel dump: %v", err)
	}

	wantTree := digests(t, sv, "/")
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		dst := newFS(t, 16384)
		for _, k := range order {
			if _, err := Restore(ctx, RestoreOptions{
				FS: dst, Source: streams[k].source(), KernelIntegrated: true,
			}); err != nil {
				t.Fatalf("order %v: restoring shard %d: %v", order, k, err)
			}
		}
		assertTreesEqual(t, wantTree, digests(t, dst.ActiveView(), "/"))
		if err := dst.MustCheck(ctx); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

// TestLogicalParallelShardFaultIsolatedAndResumes is the chaos story
// on the logical engine: one drive of four drops offline mid-dump, the
// sibling shards run to completion, the torn shard hands back its own
// checkpoint, a ResumeShards re-invocation redumps only that shard's
// remainder, and restoring all the streams rebuilds the exact tree.
func TestLogicalParallelShardFaultIsolatedAndResumes(t *testing.T) {
	_, sv := parallelLogicalFS(t, 73)
	const nShards = 4
	const faulted = 2

	drives := make([]*tape.Drive, nShards)
	sinks := make([]dumpfmt.Sink, nShards)
	for k := range drives {
		drives[k] = newTape(t, 0, 1)
		sinks[k] = &DriveSink{Drive: drives[k]}
	}
	drives[faulted].InjectFaults(tape.FaultConfig{OfflineAfterRecords: 14})

	stats, err := Dump(ctx, DumpOptions{
		View: sv, Sinks: sinks, Label: "chaos", ReadAhead: 8,
		Readers: 2, CheckpointEvery: 2,
	})
	if err == nil {
		t.Fatal("dump with a dead drive reported success")
	}
	if !errors.Is(err, tape.ErrOffline) {
		t.Fatalf("dump error = %v, want drive offline", err)
	}
	for k, r := range stats.ShardResults {
		if k == faulted {
			if r.Err == nil {
				t.Fatal("faulted shard reported no error")
			}
			if r.Checkpoint == nil || r.Checkpoint.Shard != faulted || r.Checkpoint.Shards != nShards {
				t.Fatalf("faulted shard checkpoint = %+v", r.Checkpoint)
			}
			if r.Checkpoint.LastIno == 0 || r.FilesDumped == 0 {
				t.Fatalf("offline hit before shard made progress (files=%d, ckpt=%+v); raise OfflineAfterRecords",
					r.FilesDumped, r.Checkpoint)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("sibling shard %d did not complete: %v", k, r.Err)
		}
		if r.BytesWritten == 0 {
			t.Fatalf("sibling shard %d wrote nothing", k)
		}
	}

	// The drive comes back; what reached tape before the outage is
	// intact. Resume redumps only the torn shard: the other entries of
	// Sinks are nil, so their shards are skipped.
	drives[faulted].SetOffline(false)
	drives[faulted].Flush(nil)
	torn := stats.ShardResults[faulted].Checkpoint

	cont := &memSink{}
	contSinks := make([]dumpfmt.Sink, nShards)
	contSinks[faulted] = cont
	resume := make([]*Checkpoint, nShards)
	resume[faulted] = torn
	stats2, err := Dump(ctx, DumpOptions{
		View: sv, Sinks: contSinks, Label: "chaos", ReadAhead: 8,
		Readers: 2, CheckpointEvery: 2, ResumeShards: resume,
	})
	if err != nil {
		t.Fatalf("resumed dump: %v", err)
	}
	if stats2.Date != stats.Date {
		t.Fatalf("resumed dump date %d != original %d", stats2.Date, stats.Date)
	}
	if r := stats2.ShardResults[faulted]; r.FilesSkipped == 0 || r.FilesDumped == 0 {
		t.Fatalf("resumed shard skipped %d, dumped %d; want both > 0", r.FilesSkipped, r.FilesDumped)
	}
	for k, r := range stats2.ShardResults {
		if k != faulted && !reflect.DeepEqual(r, ShardResult{}) {
			t.Fatalf("skipped shard %d has result %+v on resume", k, r)
		}
	}

	// Restore the three intact tapes, the torn tape (salvaging its
	// tail), and the continuation stream; the tree must be exact.
	dst := newFS(t, 16384)
	for k := 0; k < nShards; k++ {
		drives[k].Rewind(nil)
		salvage := k == faulted
		if _, err := Restore(ctx, RestoreOptions{
			FS: dst, Source: NewDriveSource(drives[k], nil, 1),
			KernelIntegrated: true, Salvage: salvage,
		}); err != nil {
			t.Fatalf("restoring shard %d tape: %v", k, err)
		}
	}
	if _, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: cont.source(), KernelIntegrated: true,
	}); err != nil {
		t.Fatalf("restoring continuation stream: %v", err)
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLogicalParallelIncrementalChain runs a parallel full and a
// parallel incremental on top, restoring both sets.
func TestLogicalParallelIncrementalChain(t *testing.T) {
	src, sv := parallelLogicalFS(t, 74)
	const nShards = 3
	dates := NewDumpDates()

	dump := func(view *wafl.View, level int) []*memSink {
		t.Helper()
		sinks := make([]dumpfmt.Sink, nShards)
		streams := make([]*memSink, nShards)
		for k := range sinks {
			streams[k] = &memSink{}
			sinks[k] = streams[k]
		}
		if _, err := Dump(ctx, DumpOptions{
			View: view, Level: level, Dates: dates, FSID: "test",
			Sinks: sinks, Label: fmt.Sprintf("l%d", level), ReadAhead: 8, Readers: 2,
		}); err != nil {
			t.Fatalf("level %d parallel dump: %v", level, err)
		}
		return streams
	}

	full := dump(sv, 0)

	// Mutate and snapshot again for the level-1.
	if _, err := src.WriteFile(ctx, "/inc/new.txt", []byte("new since full"), 0644); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateSnapshot(ctx, "s2"); err != nil {
		t.Fatal(err)
	}
	sv2, _ := src.SnapshotView("s2")
	incr := dump(sv2, 1)

	dst := newFS(t, 16384)
	for _, set := range [][]*memSink{full, incr} {
		for k, s := range set {
			if _, err := Restore(ctx, RestoreOptions{
				FS: dst, Source: s.source(), KernelIntegrated: true,
			}); err != nil {
				t.Fatalf("restoring stream %d: %v", k, err)
			}
		}
	}
	assertTreesEqual(t, digests(t, sv2, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

var errSinkDead = errors.New("sink dead")

// deadSink rejects every record.
type deadSink struct{}

func (deadSink) WriteRecord([]byte) error { return errSinkDead }
func (deadSink) NextVolume() error        { return errSinkDead }

// TestLogicalPhaseIIIWriteErrorFailsOnlyItsShard: a stream that dies
// while the maps and directories are going out fails its own shard
// only; the siblings write exactly the streams they write without it.
// A Sink dump returns that error unwrapped.
func TestLogicalPhaseIIIWriteErrorFailsOnlyItsShard(t *testing.T) {
	_, sv := parallelLogicalFS(t, 77)
	const nShards = 3
	dump := func(sinks []dumpfmt.Sink) (*DumpStats, error) {
		return Dump(ctx, DumpOptions{View: sv, Sinks: sinks, Label: "p3", ReadAhead: 8, CheckpointEvery: 2})
	}
	want := []*memSink{{}, {}, {}}
	if _, err := dump([]dumpfmt.Sink{want[0], want[1], want[2]}); err != nil {
		t.Fatal(err)
	}
	got := []*memSink{{}, nil, {}}
	stats, err := dump([]dumpfmt.Sink{got[0], deadSink{}, got[2]})
	if !errors.Is(err, errSinkDead) {
		t.Fatalf("dump error = %v, want the dead sink's", err)
	}
	if r := stats.ShardResults[1]; r.Err == nil || r.FilesDumped != 0 || r.Checkpoint == nil || r.Checkpoint.LastIno != 0 {
		t.Fatalf("dead shard result %+v, want a Phase III failure with an empty checkpoint", r)
	}
	for _, k := range []int{0, 2} {
		if r := stats.ShardResults[k]; r.Err != nil {
			t.Fatalf("sibling shard %d failed: %v", k, r.Err)
		}
		if string(got[k].bytes()) != string(want[k].bytes()) {
			t.Fatalf("sibling shard %d stream differs from the all-good dump", k)
		}
	}

	stats, err = Dump(ctx, DumpOptions{View: sv, Sink: deadSink{}, Label: "p3", CheckpointEvery: 2})
	if err != errSinkDead {
		t.Fatalf("Sink dump error = %v, want the sink's error unwrapped", err)
	}
	if stats.Checkpoint == nil || stats.Checkpoint.Shards != 1 || len(stats.ShardResults) != 1 {
		t.Fatalf("Sink dump checkpoint %+v, %d shard results", stats.Checkpoint, len(stats.ShardResults))
	}
}
