package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestImageChainPropertyRandomStates drives randomized filesystem
// evolution — generation, churn, snapshot creation and deletion — and
// after each epoch takes an incremental image dump against the
// previous one. Applying the whole chain to a blank volume must yield
// the final snapshot's exact state, every trial.
func TestImageChainPropertyRandomStates(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(3000 + trial*17)
		r := rand.New(rand.NewSource(seed))
		fs, dev := newFS(t, 16384)
		paths, err := workload.Generate(ctx, fs, workload.Spec{
			Seed: seed, Files: r.Intn(40) + 10, DirFanout: r.Intn(8) + 2,
			MeanFileSize: (r.Intn(16) + 2) << 10, Symlinks: r.Intn(3), Hardlinks: r.Intn(3),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var streams []*memSink
		prev := ""
		epochs := r.Intn(3) + 2
		for e := 0; e < epochs; e++ {
			snap := fmt.Sprintf("epoch%d", e)
			if err := fs.CreateSnapshot(ctx, snap); err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, e, err)
			}
			sink := &memSink{}
			if _, err := Dump(ctx, DumpOptions{
				FS: fs, Vol: dev, SnapName: snap, BaseSnapName: prev, Sink: sink,
			}); err != nil {
				t.Fatalf("trial %d epoch %d dump: %v", trial, e, err)
			}
			streams = append(streams, sink)
			prev = snap

			// Evolve between epochs.
			paths, err = workload.Age(ctx, fs, paths, workload.AgeSpec{
				Seed: seed + int64(e) + 1, Rounds: 1,
				ChurnPerRound: len(paths)/3 + 1, MeanFileSize: 8 << 10,
			})
			if err != nil {
				t.Fatalf("trial %d epoch %d churn: %v", trial, e, err)
			}
		}

		// Replay the chain onto a blank volume.
		target := storage.NewMemDevice(dev.NumBlocks())
		for i, s := range streams {
			if _, err := Restore(ctx, RestoreOptions{
				Vol: target, Source: s.source(), ExpectIncremental: i > 0,
			}); err != nil {
				t.Fatalf("trial %d applying stream %d: %v", trial, i, err)
			}
		}
		restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
		if err != nil {
			t.Fatalf("trial %d mount: %v", trial, err)
		}
		sv, err := fs.SnapshotView(prev)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := workload.TreeDigest(ctx, sv, "/")
		got, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
		if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
			t.Fatalf("trial %d (%d epochs): chain restore differs: %v", trial, epochs, diffs[0])
		}
		// The restored system carries all the intermediate snapshots.
		if len(restored.Snapshots()) != epochs-1 {
			t.Fatalf("trial %d: restored %d snapshots, want %d",
				trial, len(restored.Snapshots()), epochs-1)
		}
		if err := restored.MustCheck(ctx); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestShardedDumpCoversExactlyOnce verifies shard partitioning:
// together the shards carry every block exactly once.
func TestShardedDumpCoversExactlyOnce(t *testing.T) {
	fs, dev := newFS(t, 8192)
	workload.Generate(ctx, fs, workload.Spec{Seed: 77, Files: 30, DirFanout: 6, MeanFileSize: 8 << 10})
	fs.CreateSnapshot(ctx, "s")
	words, _ := fs.SnapshotBlockMapWords(ctx, "s")
	all := IncrementalBlocks(words, nil)

	for _, shards := range []int{1, 2, 3, 5} {
		seen := make(map[uint32]int)
		total := 0
		for k := 0; k < shards; k++ {
			sinks := make([]Sink, shards)
			sinks[k] = &memSink{}
			st, err := Dump(ctx, DumpOptions{
				FS: fs, Vol: dev, SnapName: "s", Sinks: sinks,
			})
			if err != nil {
				t.Fatal(err)
			}
			total += st.BlocksDumped
			// Re-derive this shard's slice and mark it.
			lo := len(all) * k / shards
			hi := len(all) * (k + 1) / shards
			for _, b := range all[lo:hi] {
				seen[b]++
			}
		}
		if total != len(all) {
			t.Fatalf("%d shards dumped %d blocks, want %d", shards, total, len(all))
		}
		for b, n := range seen {
			if n != 1 {
				t.Fatalf("%d shards: block %d covered %d times", shards, b, n)
			}
		}
	}
	// A dump with no stream at all is rejected.
	if _, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sinks: make([]Sink, 4)}); err == nil {
		t.Fatal("all-nil Sinks accepted")
	}
}
