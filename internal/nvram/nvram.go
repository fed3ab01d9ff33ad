// Package nvram simulates the filer's non-volatile RAM. Following the
// paper (§2.2), NVRAM is used "only to store recent NFS operations" —
// a log of requests not yet committed by a consistency point — never as
// a disk cache. The filesystem appends serialized operations here;
// when the log passes its high-water mark the filesystem takes a
// consistency point and resets the log; and after a crash the
// surviving entries are replayed against the last consistency point.
//
// Logical restore writes pay the NVRAM logging cost on every operation;
// image restore bypasses this package entirely. That asymmetry is one
// of the paper's stated reasons physical restore is faster, and is the
// subject of ablation A1 in DESIGN.md.
package nvram

import (
	"context"
	"errors"
	"time"

	"repro/internal/sim"
)

// ErrFull is returned by Append when an entry does not fit even after
// the caller has had a chance to take a consistency point.
var ErrFull = errors.New("nvram: log full")

// Params describes the NVRAM hardware.
type Params struct {
	// Size is the log capacity in bytes (the F630 had 32 MB).
	Size int
	// PerOp is the latency of committing one log entry to NVRAM.
	PerOp time.Duration
	// PerByte is the additional cost per logged byte.
	PerByte time.Duration
}

// DefaultParams models the F630's 32 MB NVRAM.
func DefaultParams() Params {
	return Params{
		Size:    32 << 20,
		PerOp:   30 * time.Microsecond,
		PerByte: 90 * time.Nanosecond, // ~11 MB/s NVRAM commit bandwidth
	}
}

// Log is a bounded non-volatile operation log. Entries survive Crash
// (a simulated power loss) but not Reset (a consistency point).
type Log struct {
	params  Params
	station *sim.Station
	entries [][]byte
	used    int
	appends int64
}

// New creates a log. env may be nil for untimed use.
func New(env *sim.Env, p Params) *Log {
	l := &Log{params: p}
	if env != nil {
		l.station = sim.NewStation(env, "nvram", 0)
	}
	return l
}

// Append logs one serialized operation, gathered from parts (say, a
// header and a payload) into the single entry the log keeps. The log
// copies the parts, so the caller may reuse them once Append returns.
// The caller should take a consistency point when NeedCP reports true;
// Append itself only fails when a single entry cannot fit at all.
func (l *Log) Append(ctx context.Context, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if l.params.Size > 0 && l.used+n > l.params.Size {
		return ErrFull
	}
	entry := make([]byte, 0, n)
	for _, p := range parts {
		entry = append(entry, p...)
	}
	l.entries = append(l.entries, entry)
	l.used += n
	l.appends++
	if p := sim.ProcFrom(ctx); p != nil {
		l.station.Sync(p, l.params.PerOp+time.Duration(n)*l.params.PerByte)
	}
	return nil
}

// NeedCP reports whether the log has passed its high-water mark (half
// full, mirroring WAFL's split-log scheme) and the filesystem should
// take a consistency point.
func (l *Log) NeedCP() bool {
	return l.params.Size > 0 && l.used >= l.params.Size/2
}

// Reset discards all entries; called when a consistency point commits.
func (l *Log) Reset() {
	l.entries = nil
	l.used = 0
}

// Entries returns the logged operations in append order. After a crash
// the filesystem replays these against the last consistency point.
func (l *Log) Entries() [][]byte {
	out := make([][]byte, len(l.entries))
	for i, e := range l.entries {
		out[i] = make([]byte, len(e))
		copy(out[i], e)
	}
	return out
}

// Used returns the bytes currently logged.
func (l *Log) Used() int { return l.used }

// Appends returns the total number of entries ever appended.
func (l *Log) Appends() int64 { return l.appends }

// Station exposes the NVRAM timing station (nil when untimed).
func (l *Log) Station() *sim.Station { return l.station }
