package bench

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestSmokeAblations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 3
	for name, run := range map[string]func(context.Context, Config) (*AblationResult, error){
		"nvram": RunNVRAMAblation, "readahead": RunReadAheadAblation, "copy": RunCopyAblation,
	} {
		res, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: base %.2f MB/s (cpu %.0f%%) vs variant %.2f MB/s (cpu %.0f%%), speedup %.2fx",
			res.Name, res.Baseline.MBps(), 100*res.Baseline.CPUUtil,
			res.Variant.MBps(), 100*res.Variant.CPUUtil, res.Speedup())
	}
}

func TestSmokeIncremental(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 3
	res, err := RunIncremental(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("logical: full %d bytes in %v, incr %d bytes in %v", res.FullLogicalBytes, res.FullLogical.Elapsed, res.IncrLogicalBytes, res.IncrLogical.Elapsed)
	t.Logf("physical: full %d blocks in %v, incr %d blocks in %v", res.FullPhysicalBlocks, res.FullPhysical.Elapsed, res.IncrPhysicalBlocks, res.IncrPhysical.Elapsed)
	if res.IncrLogicalBytes >= res.FullLogicalBytes/2 {
		t.Error("logical incremental not small")
	}
	if res.IncrPhysicalBlocks >= res.FullPhysicalBlocks/2 {
		t.Error("physical incremental not small")
	}
}

func TestSmokeConcurrentVolumes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 2
	res, err := RunConcurrentVolumes(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("home: iso %v vs con %v; rlse: iso %v vs con %v",
		res.HomeIsolated.Elapsed, res.HomeConcurrent.Elapsed,
		res.RlseIsolated.Elapsed, res.RlseConcurrent.Elapsed)
	slow := float64(res.HomeConcurrent.Elapsed) / float64(res.HomeIsolated.Elapsed)
	if slow > 1.25 {
		t.Errorf("concurrent home dump %.2fx slower than isolated", slow)
	}
}

// TestConcurrentVolumesReportsDumpErrors: a dump that runs out of tape
// fails the experiment instead of reporting an empty row.
func TestConcurrentVolumesReportsDumpErrors(t *testing.T) {
	cfg := Config{DataMB: 2, Seed: 1, AgeRounds: 1}
	cfg.Tweak = func(fc *core.FilerConfig) {
		fc.TapeParams.Capacity = 64 << 10
		fc.CartridgesPerDrive = 1
	}
	res, err := RunConcurrentVolumes(context.Background(), cfg)
	if err == nil {
		t.Fatalf("err = nil with a 64 KiB tape; home isolated %d bytes, rlse concurrent %d bytes",
			res.HomeIsolated.Bytes, res.RlseConcurrent.Bytes)
	}
	t.Log(err)
}

// TestIncrementalDeterministic: the same seed must give the same
// incremental experiment, so the churned file set must not depend on
// map iteration order.
func TestIncrementalDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataMB = 8
	cfg.AgeRounds = 2
	var runs [2]*IncrementalResult
	for i := range runs {
		res, err := RunIncremental(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	a, b := runs[0], runs[1]
	if a.IncrLogicalBytes != b.IncrLogicalBytes || a.IncrPhysicalBlocks != b.IncrPhysicalBlocks ||
		a.IncrLogical.Elapsed != b.IncrLogical.Elapsed || a.IncrPhysical.Elapsed != b.IncrPhysical.Elapsed {
		t.Fatalf("incremental differs run to run: logical %d B in %v vs %d B in %v, physical %d blocks in %v vs %d blocks in %v",
			a.IncrLogicalBytes, a.IncrLogical.Elapsed, b.IncrLogicalBytes, b.IncrLogical.Elapsed,
			a.IncrPhysicalBlocks, a.IncrPhysical.Elapsed, b.IncrPhysicalBlocks, b.IncrPhysical.Elapsed)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("incremental results differ run to run")
	}
}
