package bench

import (
	"context"
	"reflect"
	"testing"
)

// stageNames lists an operation's stage rows in order.
func stageNames(op OpResult) []string {
	var names []string
	for _, s := range op.Stages {
		names = append(names, s.Name)
	}
	return names
}

// TestSmokeBasic pins Table 3's stage rows: each operation reports the
// paper's stages in order, and its elapsed time is their window.
func TestSmokeBasic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 3
	res, err := RunBasic(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"Logical Backup": {"Creating snapshot", "Mapping files and directories",
			"Dumping directories", "Dumping files", "Deleting snapshot"},
		"Logical Restore": {"Reading directories", "Creating files",
			"Filling in data", "Setting directory attributes"},
		"Physical Backup":  {"Creating snapshot", "Dumping blocks", "Deleting snapshot"},
		"Physical Restore": {"Restoring blocks"},
	}
	for _, op := range res.Ops() {
		t.Logf("%-18s elapsed=%v MBps=%.2f cpu=%.0f%%", op.Name, op.Elapsed, op.MBps(), 100*op.CPUUtil)
		for _, s := range op.Stages {
			t.Logf("    %-28s %v cpu=%.0f%% disk=%.2f tape=%.2f", s.Name, s.Elapsed(), 100*s.CPUUtil(), s.DiskMBps(), s.TapeMBps())
		}
		if got := stageNames(op); !reflect.DeepEqual(got, want[op.Name]) {
			t.Errorf("%s stages = %q, want %q", op.Name, got, want[op.Name])
			continue
		}
		first, last := op.Stages[0], op.Stages[len(op.Stages)-1]
		if window := last.End.T - first.Begin.T; op.Elapsed != window || window <= 0 {
			t.Errorf("%s elapsed %v, stage window %v", op.Name, op.Elapsed, window)
		}
	}
}
