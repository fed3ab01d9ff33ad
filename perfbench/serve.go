package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ndmp"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The serve fleet of internal/bench's RunServeBench, run long enough
// that the drive pool's one-second start credit is ~3% of the run.
const (
	serveClients    = 100
	serveTenants    = 4
	serveDrives     = 4
	serveDriveRate  = 4 << 20 // bytes/s per drive
	serveRecords    = 640     // per client
	serveRecordSize = 8 << 10
)

// countSink keeps only the byte count of what lands on the host.
type countSink struct{ bytes int64 }

func (s *countSink) WriteRecord(rec []byte) error { s.bytes += int64(len(rec)); return nil }
func (s *countSink) NextVolume() error            { return nil }

// tracedGate wraps the drive pool as the host's admission gate
// (sched.admit_s). The gate runs inside a host frame handler, on the
// process that raised the tracer's latest event.
type tracedGate struct {
	g ndmp.Gate
	t *Tracer
}

func (g *tracedGate) Admit(tenant string, session uint64, stream int) (ndmp.Admission, string) {
	p := g.t.running
	id := g.t.begin(p, "sched.admit")
	a, reason := g.g.Admit(tenant, session, stream)
	g.t.end(p, id)
	return a, reason
}

func (g *tracedGate) Release(tenant string, session uint64, stream int) {
	p := g.t.running
	id := g.t.begin(p, "sched.admit")
	g.g.Release(tenant, session, stream)
	g.t.end(p, id)
}

func (g *tracedGate) Charge(tenant string, session uint64, stream int, n int) bool {
	p := g.t.running
	id := g.t.begin(p, "sched.admit")
	ok := g.g.Charge(tenant, session, stream, n)
	g.t.end(p, id)
	return ok
}

type clientResult struct {
	tenant string
	turn   time.Duration // dial to close, virtual
	stats  ndmp.SessionStats
	err    error
}

// serveBench is the serve-fleet workload: closed-loop clients in four
// tenants, all dialing at t=0, push fixed-size records over simulated
// links into one host gated by a drive pool.
type serveBench struct {
	env     *sim.Env
	tr      *Tracer
	pool    *sched.DrivePool
	host    *ndmp.Host
	sinks   []*countSink
	results []clientResult
	discard bool // release before the run: clients exit at once
}

// setupServe builds the fleet: pool, host and one link and client
// process per client. Clients are dealt to tenants by a seeded shuffle,
// an equal number each.
func setupServe(_ context.Context, seed int64, traced bool, _ map[string]time.Duration) (instance, error) {
	b := &serveBench{env: sim.NewEnv(), results: make([]clientResult, serveClients)}
	if traced {
		b.tr = newTracer(b.env)
	}
	b.pool = sched.NewDrivePool(sched.DrivePoolConfig{
		Drives: serveDrives, MaxQueue: serveClients, Now: b.env.Now,
		DriveRate: serveDriveRate,
		// Waiters poll at the client heartbeat interval; expire only
		// the ones that have stopped.
		StaleAfter: 5 * time.Second,
	})
	b.host = ndmp.NewHost(func(ndmp.Hello) (ndmp.Sink, error) {
		s := &countSink{}
		b.sinks = append(b.sinks, s)
		return s, nil
	})
	b.host.Gate = b.pool
	if b.tr != nil {
		b.host.Gate = &tracedGate{g: b.pool, t: b.tr}
	}
	rng := rand.New(rand.NewSource(seed))
	rec := make([]byte, serveRecordSize)
	rng.Read(rec)
	for i, slot := range rng.Perm(serveClients) {
		b.spawnClient(i, fmt.Sprintf("tenant%02d", slot%serveTenants), rec)
	}
	return b, nil
}

func (b *serveBench) spawnClient(i int, tenant string, rec []byte) {
	l := transport.NewLink(transport.DefaultParams())
	conn := b.host.NewConn()
	var proc *sim.Proc
	handle := conn.HandleFrame
	if b.tr != nil {
		handle = func(raw []byte) [][]byte {
			id := b.tr.begin(proc, "ndmp.handle")
			out := conn.HandleFrame(raw)
			b.tr.end(proc, id)
			return out
		}
	}
	l.B().Attach(handle)
	b.env.Spawn(fmt.Sprintf("client%03d", i), func(p *sim.Proc) {
		if b.discard {
			return
		}
		proc = p
		l.A().Bind(p)
		res := clientResult{tenant: tenant}
		start := p.Now()
		defer func() {
			res.turn = p.Now() - start
			b.results[i] = res
		}()
		call := func(f func() error) error {
			id := b.tr.begin(p, "ndmp.client")
			defer b.tr.end(p, id)
			return f()
		}
		var s *ndmp.Session
		if res.err = call(func() (err error) {
			s, err = ndmp.Dial(func() (transport.Conn, error) { return l.A(), nil }, ndmp.Config{
				Kind: ndmp.KindLogical, Session: uint64(i + 1), Tenant: tenant,
				FSID: fmt.Sprintf("fs%03d", i), Proc: p, HeartbeatEvery: 50 * time.Millisecond,
				// Covers the worst queue wait: the whole backlog ahead
				// of one client drains at the pool's rate.
				DeadAfter: 10 * time.Minute,
			})
			return err
		}); res.err != nil {
			return
		}
		for r := 0; r < serveRecords && res.err == nil; r++ {
			res.err = call(func() error { return s.WriteRecord(rec) })
		}
		if res.err == nil {
			res.err = call(s.Close)
		}
		res.stats = s.Stats()
	})
}

func (b *serveBench) tracer() *Tracer { return b.tr }

// release ends the client processes of a fleet that never ran.
func (b *serveBench) release() {
	b.discard = true
	b.env.Run()
	*b = serveBench{}
}

func (b *serveBench) cycle(context.Context) *sample {
	s := &sample{det: make(map[string]float64)}
	s.dump = timeOp(b.env, b.tr, "serve.fleet", nil, b.env.Run)
	s.dumpData = serveClients * serveRecords * serveRecordSize

	var turns []float64
	var sessions ndmp.SessionStats
	tenantBytes := make(map[string]float64)
	for i, r := range b.results {
		s.check(fmt.Sprintf("client %d session", i), r.err)
		turns = append(turns, r.turn.Seconds())
		if r.err == nil {
			tenantBytes[r.tenant] += serveRecords * serveRecordSize
		}
		sessions.Records += r.stats.Records
		sessions.FramesSent += r.stats.FramesSent
		sessions.WindowStalls += r.stats.WindowStalls
		sessions.Replayed += r.stats.Replayed
		sessions.Reconnects += r.stats.Reconnects
	}
	var landed int64
	for _, sk := range b.sinks {
		landed += sk.bytes
	}
	hs, ps := b.host.Stats(), b.pool.Stats()
	s.check("host close", b.host.Close())
	var err error
	if want := int64(serveClients * serveRecords); hs.Records != want || landed != s.dumpData {
		err = fmt.Errorf("host has %d records, %d bytes; want %d, %d", hs.Records, landed, want, s.dumpData)
	}
	s.check("host record count", err)
	err = nil
	if ps.Rejected > 0 || ps.Expired > 0 {
		err = fmt.Errorf("pool rejected %d and expired %d sessions", ps.Rejected, ps.Expired)
	}
	s.check("pool admission", err)

	sort.Float64s(turns)
	s.det["turnaround_p50_sim_s"] = nearestRank(turns, 0.50)
	s.det["turnaround_p90_sim_s"] = nearestRank(turns, 0.90)
	var sum, sumSq float64
	for _, x := range tenantBytes {
		sum, sumSq = sum+x, sumSq+x*x
	}
	if sumSq > 0 {
		s.det["jain_fairness"] = sum * sum / (float64(len(tenantBytes)) * sumSq)
	}
	s.det["pool_ceiling_gbph"] = float64(serveDrives*serveDriveRate) * 3600 / 1e9
	if sessions.Records > 0 {
		s.det["ndmp.frames_per_record"] = float64(sessions.FramesSent) / float64(sessions.Records)
		s.det["ndmp.replayed_share"] = float64(sessions.Replayed) / float64(sessions.Records)
	}
	s.det["ndmp.window_stalls"] = float64(sessions.WindowStalls)
	s.det["ndmp.reconnects"] = float64(sessions.Reconnects)
	if ps.Granted > 0 {
		s.det["sched.wait_polls_per_grant"] = float64(ps.Waited) / float64(ps.Granted)
	}
	s.det["sched.throttled"] = float64(ps.Throttled)
	s.det["sched.rejected"] = float64(ps.Rejected)
	s.det["sched.expired"] = float64(ps.Expired)
	s.finish(landed, 0)
	return s
}

// nearestRank returns the q-quantile of sorted xs by the nearest-rank
// rule: with 100 sessions, p90 has 10 sessions beyond it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}
