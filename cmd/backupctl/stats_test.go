package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSlowLog: stats -slow prints one line per span at or over the
// threshold (virtual time) and none for a span under it.
func TestSlowLog(t *testing.T) {
	var out strings.Builder
	tr := obs.NewTracer()
	tr.OnSpan = slowLog(&out, 100*time.Millisecond)
	env := sim.NewEnv()
	env.Spawn("ops", func(p *sim.Proc) {
		ctx := obs.WithTracer(sim.WithProc(context.Background(), p), tr)
		for _, op := range []struct {
			name string
			d    time.Duration
		}{{"op.under", 99 * time.Millisecond}, {"op.at", 100 * time.Millisecond}, {"op.over", time.Second}} {
			_, span := obs.Start(ctx, op.name)
			p.Sleep(op.d)
			span.End()
		}
	})
	env.Run()
	want := "backupctl: slow op: op.at took 100ms (threshold 100ms)\n" +
		"backupctl: slow op: op.over took 1s (threshold 100ms)\n"
	if out.String() != want {
		t.Fatalf("slow log:\n%s\nwant:\n%s", out.String(), want)
	}
}
