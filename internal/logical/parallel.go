package logical

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/dumpfmt"
	"repro/internal/pipeline"
	"repro/internal/wafl"
)

// Phase IV of the logical dump: each shard (one per drive; a Sink dump
// is one shard) expands its slice of the file list into a plan of
// header-sized chunks, stages each chunk's hole map and blocks, and
// emits it in plan order. The plan fixes every header boundary before
// any file I/O starts, so the bytes a shard writes do not depend on
// who stages the chunks: the writer itself (one reader, the default),
// or N reader stages feeding it through a reorder queue — parallelism
// changes only the clock.

// viewGate serializes filesystem-view access across parallel Phase IV
// readers in untimed mode: the wafl block cache is not thread-safe.
// On the simulator the cooperative scheduler already serializes
// stages, so the gate is a no-op there (a real mutex must never be
// held across a simulated wait).
type viewGate struct {
	mu   sync.Mutex
	real bool
}

func (g *viewGate) lock() {
	if g.real {
		g.mu.Lock()
	}
}

func (g *viewGate) unlock() {
	if g.real {
		g.mu.Unlock()
	}
}

// callback runs an operator callback (Log, FileIndex), serialized
// across shard writers when they are real goroutines.
func (st *dumpState) callback(f func()) {
	if st.gate.real {
		st.cbMu.Lock()
		defer st.cbMu.Unlock()
	}
	f()
}

// shard is one stream of a dump: its sink and writer, its slice of
// the Phase IV file list (past any resume point), and its progress.
// Only the shard's own writer touches it until Dump collects results.
type shard struct {
	k, n    int // shard k of n
	sink    dumpfmt.Sink
	w       *dumpfmt.Writer
	files   []wafl.Inum
	resume  *Checkpoint
	ckptIno wafl.Inum // last inode durably checkpointed to media
	res     ShardResult
	err     error
}

// running returns the shards that have not failed.
func running(shards []*shard) []*shard {
	var live []*shard
	for _, sh := range shards {
		if sh.err == nil {
			live = append(live, sh)
		}
	}
	return live
}

// result finalizes the shard's outcome. A failed shard carries the
// resumable state: the last inode durably checkpointed (possibly
// inherited from the attempt this one resumed).
func (sh *shard) result(st *dumpState) ShardResult {
	r := sh.res
	r.Shard = sh.k
	r.Err = sh.err
	if sh.err == nil {
		r.BytesWritten = sh.w.Written()
	} else if st.opts.CheckpointEvery > 0 || sh.resume != nil {
		r.Checkpoint = &Checkpoint{
			Date: st.date, Level: st.opts.Level, LastIno: sh.ckptIno,
			Shard: sh.k, Shards: sh.n,
		}
	}
	return r
}

// fileJob is one planned Phase IV chunk: up to MaxSegsPerHeader
// segments of one file, block-aligned (MaxSegsPerHeader is a multiple
// of the segments per block).
type fileJob struct {
	ino        wafl.Inum
	seg, nsegs int
	first      bool // first chunk of its file: TSInode header + FileIndex
	last       bool // last chunk of its file: checkpoint accounting
}

// planFiles expands a shard's file slice into its chunk-job plan.
func planFiles(st *dumpState, files []wafl.Inum) []fileJob {
	var plan []fileJob
	for _, ino := range files {
		inode := st.inodes[ino]
		totalSegs := int((inode.Size + dumpfmt.TPBSize - 1) / dumpfmt.TPBSize)
		if totalSegs == 0 {
			plan = append(plan, fileJob{ino: ino, first: true, last: true})
			continue
		}
		for seg := 0; seg < totalSegs; {
			n := totalSegs - seg
			if n > dumpfmt.MaxSegsPerHeader {
				n = dumpfmt.MaxSegsPerHeader
			}
			plan = append(plan, fileJob{
				ino: ino, seg: seg, nsegs: n,
				first: seg == 0, last: seg+n >= totalSegs,
			})
			seg += n
		}
	}
	return plan
}

// chunkRes is one staged chunk moving from a reader to the writer.
type chunkRes struct {
	seq     int
	addrs   []byte  // hole map, after salvage demotion
	buf     *[]byte // pooled segment data; nil for an empty file
	damaged []DamagedBlock
}

// shardPump is one shard's cross-file read-ahead cursor, walking the
// shard's own (file, block) sequence in front of its readers.
type shardPump struct {
	files    []wafl.Inum
	laFile   int
	laFbn    uint32
	issued   int64
	consumed int64
}

// pumpShard advances the lookahead cursor until ReadAhead blocks are
// in flight beyond the blocks the shard's readers have consumed.
// Callers hold the view gate.
func pumpShard(ctx context.Context, st *dumpState, pump *shardPump) {
	for pump.issued < pump.consumed+int64(st.opts.ReadAhead) && pump.laFile < len(pump.files) {
		if ctx.Err() != nil {
			return
		}
		ino := pump.files[pump.laFile]
		inode := st.inodes[ino]
		if pump.laFbn >= inode.Blocks() {
			pump.laFile++
			pump.laFbn = 0
			continue
		}
		pbn, err := st.view.BlockAt(ctx, ino, pump.laFbn)
		pump.laFbn++
		pump.issued++ // holes count: the tape cursor skips them too
		if err != nil || pbn <= 1 {
			continue
		}
		st.view.PrefetchBlock(ctx, pbn)
	}
}

// stageChunk reads one chunk's hole map and present blocks into a
// pooled buffer BEFORE its header goes out, so an unreadable block can
// be demoted to a hole in the map instead of aborting a half-written
// record. Contiguous runs of present blocks are pulled in with one
// bulk ReadAt each, with the dump engine's own read-ahead running in
// front. A run that fails is salvaged block by block: blocks the
// storage stack cannot produce even with retries and RAID
// reconstruction are demoted to holes and recorded in the result's
// damage list (the writer folds them into the stream-order report) —
// logical backup degrades per file, not per volume. Cancellation is
// not damage: it aborts the shard.
func stageChunk(ctx context.Context, st *dumpState, pump *shardPump, seq int, j fileJob) (chunkRes, error) {
	res := chunkRes{seq: seq}
	if j.nsegs == 0 {
		return res, nil
	}
	segsPerBlock := wafl.BlockSize / dumpfmt.TPBSize
	prefetch := st.opts.ReadAhead > 0
	res.buf = bufpool.Get(dumpfmt.MaxSegsPerHeader * dumpfmt.TPBSize)
	chunkBuf := *res.buf
	addrs := make([]byte, j.nsegs)
	fail := func(err error) (chunkRes, error) {
		bufpool.Put(res.buf)
		res.buf = nil
		return res, err
	}
	st.gate.lock()
	defer st.gate.unlock()
	for i := 0; i < j.nsegs; i++ {
		fbn := uint32((j.seg + i) / segsPerBlock)
		pbn, err := st.view.BlockAt(ctx, j.ino, fbn)
		if err != nil {
			return fail(err)
		}
		if pbn != 0 {
			addrs[i] = 1
		}
	}
	for i := 0; i < j.nsegs; {
		if addrs[i] == 0 {
			i++
			continue
		}
		sIdx := j.seg + i
		fbn0 := sIdx / segsPerBlock
		nb := 1
		for nb < runBlocks {
			next := (fbn0+nb)*segsPerBlock - j.seg
			if next >= j.nsegs || addrs[next] == 0 {
				break
			}
			nb++
		}
		if prefetch {
			pump.consumed += int64(nb)
			pumpShard(ctx, st, pump)
		}
		dst := chunkBuf[i*dumpfmt.TPBSize : i*dumpfmt.TPBSize+nb*wafl.BlockSize]
		if _, err := st.view.ReadAt(ctx, j.ino, uint64(fbn0)*wafl.BlockSize, dst); err != nil {
			for b := 0; b < nb; b++ {
				fbn := fbn0 + b
				si := fbn*segsPerBlock - j.seg
				d := chunkBuf[si*dumpfmt.TPBSize : si*dumpfmt.TPBSize+wafl.BlockSize]
				_, rerr := st.view.ReadAt(ctx, j.ino, uint64(fbn)*wafl.BlockSize, d)
				if rerr == nil {
					continue
				}
				if cerr := ctx.Err(); cerr != nil {
					return fail(cerr)
				}
				for k := 0; k < segsPerBlock; k++ {
					if si+k < j.nsegs {
						addrs[si+k] = 0
					}
				}
				res.damaged = append(res.damaged, DamagedBlock{Ino: j.ino, Fbn: uint32(fbn), Err: rerr.Error()})
			}
		}
		i = (fbn0+nb)*segsPerBlock - j.seg
		if i > j.nsegs {
			i = j.nsegs
		}
	}
	res.addrs = addrs
	return res, nil
}

// shardChunkReader pulls chunk jobs off the shared plan by atomic
// counter, stages each, and hands it to the writer queue.
func shardChunkReader(ctx context.Context, st *dumpState, pump *shardPump, plan []fileJob, next *atomic.Int64, out *pipeline.Queue[chunkRes]) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		seq := int(next.Add(1)) - 1
		if seq >= len(plan) {
			return nil
		}
		res, err := stageChunk(ctx, st, pump, seq, plan[seq])
		if err != nil {
			return err
		}
		if err := out.Put(ctx, res); err != nil {
			if res.buf != nil {
				bufpool.Put(res.buf)
			}
			return err
		}
	}
}

// emitChunk writes one reassembled chunk: TSInode/TSAddr header, then
// the present segments with the last segment trimmed to the file size.
func emitChunk(st *dumpState, w *dumpfmt.Writer, j fileJob, res chunkRes) error {
	inode := st.inodes[j.ino]
	di := toDumpInode(&inode)
	if j.nsegs == 0 {
		return w.WriteHeader(&dumpfmt.Header{Type: dumpfmt.TSInode, Inumber: uint32(j.ino), Dinode: di})
	}
	t := int32(dumpfmt.TSInode)
	if !j.first {
		t = dumpfmt.TSAddr
	}
	h := &dumpfmt.Header{Type: t, Inumber: uint32(j.ino), Dinode: di, Count: int32(j.nsegs), Addrs: res.addrs}
	if err := w.WriteHeader(h); err != nil {
		return err
	}
	chunkBuf := *res.buf
	for i := 0; i < j.nsegs; i++ {
		if res.addrs[i] == 0 {
			continue
		}
		sIdx := j.seg + i
		so := i * dumpfmt.TPBSize
		endOff := so + dumpfmt.TPBSize
		if rem := inode.Size - uint64(sIdx)*dumpfmt.TPBSize; rem < dumpfmt.TPBSize {
			endOff = so + int(rem)
		}
		if err := w.WriteSegment(chunkBuf[so:endOff]); err != nil {
			return err
		}
	}
	return nil
}

// dumpFiles runs one shard's Phase IV and closes its stream. With one
// reader the writer stages each chunk itself; with more, reader stages
// stage chunks concurrently and the writer reassembles plan order.
func (st *dumpState) dumpFiles(ctx context.Context, sh *shard) error {
	plan := planFiles(st, sh.files)
	pump := &shardPump{files: sh.files}
	readers := st.opts.Readers
	if readers > len(plan) {
		readers = len(plan)
	}
	if readers <= 1 {
		return st.writeFiles(sh, plan, func(seq int) (chunkRes, error) {
			if err := ctx.Err(); err != nil {
				return chunkRes{}, err
			}
			return stageChunk(ctx, st, pump, seq, plan[seq])
		})
	}

	pl := pipeline.New(ctx)
	out := pipeline.NewQueue[chunkRes](pl, fmt.Sprintf("logical.shard%d", sh.k), 2*readers+2)
	var next atomic.Int64
	var live atomic.Int64
	live.Store(int64(readers))
	for r := 0; r < readers; r++ {
		pl.Go(fmt.Sprintf("logical.shard%d.reader%d", sh.k, r), func(ctx context.Context) error {
			err := shardChunkReader(ctx, st, pump, plan, &next, out)
			if live.Add(-1) == 0 {
				out.CloseSend() // last reader out ends the stream
			}
			return err
		})
	}
	pl.Go(fmt.Sprintf("logical.shard%d.writer", sh.k), func(ctx context.Context) error {
		defer pipeline.BindStageProc(ctx, sh.sink)()
		// Readers finish out of order; pending chunks are bounded by
		// the reader count plus the queue.
		pending := make(map[int]chunkRes)
		defer func() {
			for _, r := range pending {
				if r.buf != nil {
					bufpool.Put(r.buf)
				}
			}
		}()
		return st.writeFiles(sh, plan, func(seq int) (chunkRes, error) {
			for {
				if res, ok := pending[seq]; ok {
					delete(pending, seq)
					return res, nil
				}
				c, ok, err := out.Get(ctx)
				if err != nil {
					return chunkRes{}, err
				}
				if !ok {
					return chunkRes{}, fmt.Errorf("logical: chunk stream ended at %d of %d", seq, len(plan))
				}
				pending[c.seq] = c
			}
		})
	})
	return pl.Wait()
}

// writeFiles emits the shard's plan in order, taking each staged chunk
// from next, checkpointing after every CheckpointEvery completed files,
// and closes the stream.
func (st *dumpState) writeFiles(sh *shard, plan []fileJob, next func(seq int) (chunkRes, error)) error {
	opts := &st.opts
	sinceCkpt := 0
	for seq, j := range plan {
		res, err := next(seq)
		if err != nil {
			return err
		}
		if j.first && opts.FileIndex != nil {
			// Emitted before the file so Unit names the stream position
			// of its header. A resumed dump indexes only this stream's
			// files; the skipped ones are on the prior attempt's index.
			unit := sh.w.Tapea()
			st.callback(func() { opts.FileIndex(st.path(j.ino), j.ino, unit) })
		}
		err = emitChunk(st, sh.w, j, res)
		if res.buf != nil {
			bufpool.Put(res.buf)
		}
		if err != nil {
			return err
		}
		// Damage reports fold in here, in stream order, so the report
		// is deterministic for any reader count.
		for _, d := range res.damaged {
			sh.res.Damaged = append(sh.res.Damaged, d)
			if opts.Log != nil {
				d := d
				st.callback(func() {
					opts.Log(fmt.Sprintf("ino %d fbn %d unreadable, hole-mapped: %s", d.Ino, d.Fbn, d.Err))
				})
			}
		}
		if !j.last {
			continue
		}
		sh.res.FilesDumped++
		sinceCkpt++
		if opts.CheckpointEvery > 0 && sinceCkpt >= opts.CheckpointEvery {
			if err := sh.w.Checkpoint(uint32(j.ino)); err != nil {
				return err
			}
			// A sink that accepts records provisionally must confirm
			// durability before the checkpoint may vouch for them.
			if sy, ok := sh.sink.(dumpfmt.Syncer); ok {
				if err := sy.Sync(); err != nil {
					return err
				}
			}
			sh.ckptIno = j.ino
			sinceCkpt = 0
		}
	}
	return sh.w.Close()
}
