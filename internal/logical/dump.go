package logical

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dumpfmt"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/wafl"
)

// DumpOptions configures a logical dump.
type DumpOptions struct {
	// View is the filesystem view to dump — normally a snapshot view,
	// which is what gives dump its self-consistent image (paper §3).
	View *wafl.View
	// Level is the incremental level, 0..9.
	Level int
	// Dates is the dump-date history; nil treats every level as 0.
	// On success the dump records its date here.
	Dates *DumpDates
	// FSID identifies the filesystem in Dates (e.g. "home").
	FSID string
	// Subtree restricts the dump to the directory at this path
	// ("" = whole filesystem) — "a user can back up a subset of a
	// data in a file system".
	Subtree string
	// Exclude, if set, filters out entries by name ("logical backup
	// schemes often take advantage of filters").
	Exclude func(name string) bool
	// Sink receives the stream of a single-stream dump. It is the
	// one-element spelling of Sinks and is mutually exclusive with it.
	Sink dumpfmt.Sink
	// Sinks fans one Dump call out across parallel tape drives: shard
	// k of len(Sinks) writes a self-contained stream to Sinks[k] —
	// full inode maps and all directories (so restore can map names),
	// plus the k-th contiguous slice of the Phase IV file list in
	// inode order. The shards stream concurrently on the internal
	// pipeline; restore applies the shard streams in any order. A
	// shard failure does not abort its siblings: the other shards run
	// to completion and the failed shard's checkpoint comes back in
	// ShardResults. A nil entry skips that shard (its ShardResult
	// stays zero), so "redo only shard k" is Sinks with only entry k
	// set plus ResumeShards[k]. At least one entry must be non-nil.
	Sinks []dumpfmt.Sink
	// Readers is the number of Phase IV chunk readers per shard
	// (default 1, which stages chunks on the writer itself). More
	// readers pull file chunks off a shared plan and the per-drive
	// writer reassembles them in stream order, so the bytes on tape do
	// not depend on Readers.
	Readers int
	// Label names the dump on tape.
	Label string
	// ReadAhead is the dump engine's own read-ahead depth in blocks
	// (paper §3: "Network Appliance's dump generates its own
	// read-ahead policy"). 0 disables it.
	ReadAhead int
	// CheckpointEvery emits a durable TS_CHECKPOINT record after every
	// N files in Phase IV, making the dump restartable (§4 of the
	// paper restarts image dumps at tape boundaries; checkpoints give
	// the logical stream the same property). 0 disables checkpoints
	// and keeps the stream byte-identical to older dumps.
	CheckpointEvery int
	// Resume continues an interrupted single-stream dump from the
	// checkpoint a failed Dump returned: Phases I-III run again (the
	// new stream must be self-contained enough for restore to map
	// names), but Phase IV skips files already durably on the previous
	// stream. It is the one-element spelling of ResumeShards.
	Resume *Checkpoint
	// ResumeShards, len(Sinks) long, resumes individual shards of a
	// parallel dump: entry k is shard k's checkpoint from a previous
	// run's ShardResults, or nil to dump that shard from its start.
	// All checkpoints must carry the same interrupted dump's date, so
	// every stream of the set describes one self-consistent dump.
	ResumeShards []*Checkpoint
	// Log, if set, receives a line per notable recovery event
	// (hole-mapped blocks, for the operator's damage report).
	Log func(line string)
	// FileIndex, if set, receives one entry per file dumped in Phase
	// IV: the file's dump-relative path, its inode, and the stream
	// position (in 1 KB dump units) where its header begins. The
	// backup catalog records these so a later single-file restore can
	// tell which dump sets contain the path — and a seek-capable
	// source can space directly to it.
	FileIndex func(path string, ino wafl.Inum, unit int64)
}

// Checkpoint is the durable progress of an interrupted dump. It names
// the last file inode known to be wholly on media; re-invoking Dump
// with it resumes after that inode instead of at block zero.
type Checkpoint struct {
	Date    int64 // dump date of the interrupted run (kept across streams)
	Level   int
	LastIno wafl.Inum // 0 = no file completed
	// Shard/Shards record which stream of the dump this is (shard 0 of
	// 1 for a single-stream dump), so a resume cannot be applied to
	// the wrong slice of the file list.
	Shard  int
	Shards int
}

// DamagedBlock identifies a file block the dump could not read even
// with retries and RAID recovery. The block was hole-mapped, so the
// restored file reads zeros there; everything else restores intact.
type DamagedBlock struct {
	Ino wafl.Inum
	Fbn uint32 // file block number
	Err string // the final read error, for the operator's report
}

// DumpStats reports what a dump did. The file and byte counters
// aggregate across shards; DirsDumped counts unique directories (every
// stream carries all of them).
type DumpStats struct {
	Date         int64
	BaseDate     int64
	InodesMapped int
	DirsDumped   int
	FilesDumped  int
	FilesSkipped int // already on media per the resume checkpoint
	BytesWritten int64
	// Damaged lists file blocks hole-mapped after unrecoverable read
	// faults — the "exactly which inodes were damaged" report.
	Damaged []DamagedBlock
	// Checkpoint is set (alongside a non-nil error) when a Sink dump
	// aborted but can resume; nil on success or when checkpoints were
	// disabled and no resume state existed. A Sinks dump reports
	// checkpoints per shard in ShardResults.
	Checkpoint *Checkpoint
	// ShardResults is the per-shard outcome, one entry per stream:
	// one for a Sink dump, len(Sinks) for a Sinks dump.
	ShardResults []ShardResult
}

// ShardResult is one shard's outcome within a dump.
type ShardResult struct {
	Shard        int
	FilesDumped  int
	FilesSkipped int // already on media per the resume checkpoint
	BytesWritten int64
	// Damaged lists this shard's hole-mapped blocks, in stream order.
	Damaged []DamagedBlock
	// Checkpoint is set (alongside a non-nil Err) when the shard
	// aborted but can resume from its last durable checkpoint.
	Checkpoint *Checkpoint
	// Err is the shard's failure, nil when the shard completed.
	Err error
}

// dumpState carries the four phases' shared working set.
type dumpState struct {
	opts    DumpOptions
	view    *wafl.View
	date    int64
	ddate   int64
	rootIno wafl.Inum

	used   *dumpfmt.InoMap // allocated inodes in the view (subtree)
	dump   *dumpfmt.InoMap // inodes to be dumped
	isDir  map[wafl.Inum]bool
	parent map[wafl.Inum]wafl.Inum
	names  map[wafl.Inum]string // name each inode was first reached by
	inodes map[wafl.Inum]wafl.Inode

	// gate serializes view access and cbMu operator callbacks across
	// concurrently running shards and readers.
	gate *viewGate
	cbMu sync.Mutex
}

// runBlocks is how many file blocks Phase IV reads per bulk ReadAt.
const runBlocks = 16

// Dump runs the four-phase logical dump. Phases I and II run once;
// Phase III writes the maps and every directory to each stream; Phase
// IV gives each stream its own slice of the file list. A Sink dump is
// a one-shard dump: it returns the shard's own error and checkpoint.
func Dump(ctx context.Context, opts DumpOptions) (*DumpStats, error) {
	if opts.View == nil {
		return nil, fmt.Errorf("logical: nil view")
	}
	sinks, resumes := opts.Sinks, opts.ResumeShards
	single := opts.Sink != nil
	if single {
		if sinks != nil {
			return nil, fmt.Errorf("logical: Sink and Sinks are mutually exclusive")
		}
		if resumes != nil {
			return nil, fmt.Errorf("logical: ResumeShards requires Sinks")
		}
		sinks = []dumpfmt.Sink{opts.Sink}
		if opts.Resume != nil {
			resumes = []*Checkpoint{opts.Resume}
		}
	} else if opts.Resume != nil {
		return nil, fmt.Errorf("logical: use ResumeShards to resume a Sinks dump")
	}
	var shards []*shard
	for k, sink := range sinks {
		if sink != nil {
			shards = append(shards, &shard{k: k, n: len(sinks), sink: sink})
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("logical: nil sink")
	}
	if resumes != nil && len(resumes) != len(sinks) {
		return nil, fmt.Errorf("logical: ResumeShards has %d entries for %d sinks", len(resumes), len(sinks))
	}
	if opts.Level < 0 || opts.Level > MaxLevel {
		return nil, fmt.Errorf("logical: bad level %d", opts.Level)
	}
	fs := opts.View.FS()
	st := &dumpState{
		opts:   opts,
		view:   opts.View,
		date:   fs.Clock(),
		isDir:  make(map[wafl.Inum]bool),
		parent: make(map[wafl.Inum]wafl.Inum),
		names:  make(map[wafl.Inum]string),
		inodes: make(map[wafl.Inum]wafl.Inode),
		gate:   &viewGate{real: sim.ProcFrom(ctx) == nil},
	}
	if opts.Dates != nil {
		st.ddate = opts.Dates.Base(opts.FSID, opts.Level)
	}
	// Resume: every shard checkpoint must describe the same interrupted
	// dump, whose date the continuation set inherits.
	var resumeDate int64
	for k, r := range resumes {
		if r == nil {
			continue
		}
		if r.Level != opts.Level {
			return nil, fmt.Errorf("logical: resume checkpoint is level %d, dump is level %d", r.Level, opts.Level)
		}
		if r.Shard != k || r.Shards != len(sinks) {
			return nil, fmt.Errorf("logical: resume checkpoint for shard %d of %d given as shard %d of %d",
				r.Shard, r.Shards, k, len(sinks))
		}
		if resumeDate != 0 && resumeDate != r.Date {
			return nil, fmt.Errorf("logical: shard resume checkpoints disagree on dump date")
		}
		resumeDate = r.Date
	}
	if resumeDate != 0 {
		st.date = resumeDate
	}
	root := wafl.RootIno
	if opts.Subtree != "" {
		var err error
		root, err = opts.View.Namei(ctx, opts.Subtree)
		if err != nil {
			return nil, fmt.Errorf("logical: subtree %q: %w", opts.Subtree, err)
		}
	}
	st.rootIno = root

	var stats *DumpStats
	ctx, dumpSpan := obs.Start(ctx, "logical.dump")
	dumpSpan.SetAttr("level", opts.Level)
	defer func() {
		if stats != nil {
			dumpSpan.SetAttr("files", stats.FilesDumped)
			dumpSpan.SetAttr("dirs", stats.DirsDumped)
			dumpSpan.SetAttr("bytes", stats.BytesWritten)
		}
		dumpSpan.End()
	}()

	// Each phase is a span named the way the paper numbers the dump's
	// phases; the benchmark harness times Table 3's stages from them.
	//
	// Phase I: map the files and directories to be dumped.
	_, phase := obs.Start(ctx, "logical.phase12_map")
	err := st.phaseMap(ctx)
	phase.End()
	if err != nil {
		return nil, err
	}

	// The free-inode map and the sorted Phase III/IV worklists are
	// computed once and shared by every shard.
	clri := dumpfmt.NewInoMap(uint32(st.view.NumInodes(ctx)))
	for i := uint32(wafl.RootIno); i < uint32(st.view.NumInodes(ctx)); i++ {
		if !st.used.Has(i) {
			clri.Set(i)
		}
	}
	var dirInos, fileInos []wafl.Inum
	for ino := range st.inodes {
		if !st.dump.Has(uint32(ino)) {
			continue
		}
		if st.isDir[ino] {
			dirInos = append(dirInos, ino)
		} else {
			fileInos = append(fileInos, ino)
		}
	}
	sort.Slice(dirInos, func(i, j int) bool { return dirInos[i] < dirInos[j] })
	sort.Slice(fileInos, func(i, j int) bool { return fileInos[i] < fileInos[j] })

	stats = &DumpStats{
		Date: st.date, BaseDate: st.ddate, InodesMapped: st.used.Count(),
		ShardResults: make([]ShardResult, len(sinks)),
	}
	for _, sh := range shards {
		k := sh.k
		sh.files = fileInos[len(fileInos)*k/len(sinks) : len(fileInos)*(k+1)/len(sinks)]
		if resumes != nil && resumes[k] != nil {
			sh.resume = resumes[k]
			sh.ckptIno = sh.resume.LastIno
			skip := sort.Search(len(sh.files), func(i int) bool { return sh.files[i] > sh.ckptIno })
			sh.res.FilesSkipped = skip
			sh.files = sh.files[skip:]
		}
	}

	// Phase III: open every stream and write the two maps the format
	// prescribes — inodes free at dump time (TS_CLRI) and inodes on
	// this tape (TS_BITS), in full on every stream: restore tolerates
	// TS_BITS naming files that arrive on sibling streams. Then each
	// directory goes to every stream as soon as it is read, so every
	// stream is self-contained enough for restore to map names. A
	// stream's write error fails only its shard.
	for _, sh := range shards {
		sh.w, sh.err = dumpfmt.NewWriter(sh.sink, opts.Label, st.date, st.ddate, int32(opts.Level))
		if sh.err == nil {
			sh.err = writeMap(sh.w, dumpfmt.TSClri, clri, uint32(st.rootIno))
		}
		if sh.err == nil {
			sh.err = writeMap(sh.w, dumpfmt.TSBits, st.dump, uint32(st.rootIno))
		}
	}
	_, phase = obs.Start(ctx, "logical.phase3_dirs")
	for _, ino := range dirInos {
		live := running(shards)
		if len(live) == 0 {
			break
		}
		data, err := st.readDir(ctx, ino)
		if err != nil {
			for _, sh := range live {
				sh.err = err
			}
			break
		}
		stats.DirsDumped++
		inode := st.inodes[ino]
		di := toDumpInode(&inode)
		di.Size = uint64(len(data))
		for _, sh := range live {
			sh.err = writeBlob(sh.w, dumpfmt.TSInode, uint32(ino), di, data)
		}
	}
	phase.End()

	// Phase IV: files, in ascending inode order, each shard on its own
	// slice. A lone shard runs on the calling process; several run side
	// by side on a plain group, so one drive's failure leaves the
	// sibling shards streaming to completion.
	_, phase = obs.Start(ctx, "logical.phase4_files")
	if live := running(shards); len(live) == 1 {
		live[0].err = st.dumpFiles(ctx, live[0])
	} else {
		g := pipeline.NewGroup(ctx)
		for _, sh := range live {
			sh := sh
			g.Go(fmt.Sprintf("logical.shard%d", sh.k), func(ctx context.Context) error {
				defer pipeline.BindStageProc(ctx, sh.sink)()
				sh.err = st.dumpFiles(ctx, sh)
				return nil // shard errors are isolated in results
			})
		}
		g.Wait()
	}
	phase.End()

	var errs []error
	for _, sh := range shards {
		r := sh.result(st)
		stats.ShardResults[sh.k] = r
		stats.FilesDumped += r.FilesDumped
		stats.FilesSkipped += r.FilesSkipped
		stats.BytesWritten += r.BytesWritten
		stats.Damaged = append(stats.Damaged, r.Damaged...)
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", r.Shard, r.Err))
		}
	}
	if len(errs) > 0 {
		if single {
			// Single-stream contract: the shard's own error and resume
			// checkpoint at the stats top level.
			stats.Checkpoint = stats.ShardResults[0].Checkpoint
			return stats, stats.ShardResults[0].Err
		}
		return stats, errors.Join(errs...)
	}
	if opts.Dates != nil {
		opts.Dates.Record(opts.FSID, opts.Level, st.date)
	}
	m := obs.MetricsFrom(ctx)
	l := obs.Labels{"fsid": opts.FSID}
	m.Counter("logical_dump_files_total", l).Add(int64(stats.FilesDumped))
	m.Counter("logical_dump_dirs_total", l).Add(int64(stats.DirsDumped))
	m.Counter("logical_dump_bytes_total", l).Add(stats.BytesWritten)
	m.Counter("logical_dump_damaged_blocks_total", l).Add(int64(len(stats.Damaged)))
	return stats, nil
}

// phaseMap walks the subtree, recording every allocated inode, its
// parent, and whether it needs dumping (Phase I), then propagates
// directory requirements up to the root (Phase II).
func (st *dumpState) phaseMap(ctx context.Context) error {
	st.used = dumpfmt.NewInoMap(uint32(st.view.NumInodes(ctx)))
	st.dump = dumpfmt.NewInoMap(uint32(st.view.NumInodes(ctx)))

	type qent struct {
		ino, parent wafl.Inum
		name        string
	}
	queue := []qent{{st.rootIno, st.rootIno, ""}}
	visited := map[wafl.Inum]bool{}
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := queue[0]
		queue = queue[1:]
		if visited[cur.ino] {
			continue
		}
		visited[cur.ino] = true
		inode, err := st.view.GetInode(ctx, cur.ino)
		if err != nil {
			return err
		}
		st.used.Set(uint32(cur.ino))
		st.parent[cur.ino] = cur.parent
		st.names[cur.ino] = cur.name // hardlinks: the first name seen wins
		st.inodes[cur.ino] = inode
		st.isDir[cur.ino] = wafl.IsDir(inode.Mode)
		// Changed since the base date? (Level 0 has ddate 0: everything.)
		if inode.Mtime > st.ddate || inode.Ctime > st.ddate {
			st.dump.Set(uint32(cur.ino))
		}
		if wafl.IsDir(inode.Mode) {
			ents, err := st.view.Readdir(ctx, cur.ino)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if e.Name == "." || e.Name == ".." {
					continue
				}
				if st.opts.Exclude != nil && st.opts.Exclude(e.Name) {
					continue
				}
				queue = append(queue, qent{e.Ino, cur.ino, e.Name})
			}
		}
	}

	// Phase II: every dumped inode needs its ancestor directories on
	// tape so restore can map names to inode numbers.
	for ino := range st.inodes {
		if !st.dump.Has(uint32(ino)) {
			continue
		}
		for p := ino; ; {
			par := st.parent[p]
			st.dump.Set(uint32(par))
			if par == p || par == st.rootIno {
				break
			}
			p = par
		}
	}
	st.dump.Set(uint32(st.rootIno))
	return nil
}

// path reconstructs an inode's dump-relative path from the Phase I
// parent and name maps ("a/b/c", "" for the dump root).
func (st *dumpState) path(ino wafl.Inum) string {
	if ino == st.rootIno {
		return ""
	}
	var parts []string
	for p := ino; p != st.rootIno; {
		parts = append(parts, st.names[p])
		par, ok := st.parent[p]
		if !ok || par == p {
			break
		}
		p = par
	}
	// Reverse into root-first order.
	var b []byte
	for i := len(parts) - 1; i >= 0; i-- {
		if len(b) > 0 {
			b = append(b, '/')
		}
		b = append(b, parts[i]...)
	}
	return string(b)
}

// writeMap emits a TS_CLRI or TS_BITS record with the bitmap as data.
func writeMap(w *dumpfmt.Writer, typ int32, m *dumpfmt.InoMap, rootIno uint32) error {
	data := m.Bytes()
	nseg := (len(data) + dumpfmt.TPBSize - 1) / dumpfmt.TPBSize
	if nseg == 0 {
		nseg = 1
	}
	addrs := make([]byte, nseg)
	for i := range addrs {
		addrs[i] = 1
	}
	h := &dumpfmt.Header{
		Type:    typ,
		Inumber: rootIno,
		Dinode:  dumpfmt.DumpInode{Size: uint64(len(data))},
		Count:   int32(nseg),
		Addrs:   addrs,
	}
	if err := w.WriteHeader(h); err != nil {
		return err
	}
	for off := 0; off < nseg*dumpfmt.TPBSize; off += dumpfmt.TPBSize {
		endOff := off + dumpfmt.TPBSize
		if endOff > len(data) {
			endOff = len(data)
		}
		var seg []byte
		if off < len(data) {
			seg = data[off:endOff]
		}
		if err := w.WriteSegment(seg); err != nil {
			return err
		}
	}
	return nil
}

// canonical directory record encoding: [ino u32][type u8][len u16][name].
func encodeDirEnts(ents []wafl.DirEnt) []byte {
	var buf []byte
	var tmp [7]byte
	for _, e := range ents {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(e.Ino))
		tmp[4] = byte(e.Type >> 12)
		binary.LittleEndian.PutUint16(tmp[5:], uint16(len(e.Name)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, e.Name...)
	}
	return buf
}

// DecodeDirEnts reverses encodeDirEnts; exported for restore and tests.
func DecodeDirEnts(data []byte) ([]wafl.DirEnt, error) {
	var ents []wafl.DirEnt
	for off := 0; off < len(data); {
		if off+7 > len(data) {
			return nil, fmt.Errorf("logical: truncated directory record at %d", off)
		}
		ino := binary.LittleEndian.Uint32(data[off:])
		typ := uint32(data[off+4]) << 12
		n := int(binary.LittleEndian.Uint16(data[off+5:]))
		off += 7
		if off+n > len(data) {
			return nil, fmt.Errorf("logical: truncated directory name at %d", off)
		}
		ents = append(ents, wafl.DirEnt{Ino: wafl.Inum(ino), Type: typ, Name: string(data[off : off+n])})
		off += n
	}
	return ents, nil
}

// readDir reads one directory and encodes its canonical entry list,
// with the exclusion filter applied so restore never learns about
// filtered names.
func (st *dumpState) readDir(ctx context.Context, ino wafl.Inum) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents, err := st.view.Readdir(ctx, ino)
	if err != nil {
		return nil, err
	}
	kept := ents[:0]
	for _, e := range ents {
		if e.Name != "." && e.Name != ".." && st.opts.Exclude != nil && st.opts.Exclude(e.Name) {
			continue
		}
		kept = append(kept, e)
	}
	return encodeDirEnts(kept), nil
}

// writeBlob emits fully present (hole-free) data under one or more
// headers.
func writeBlob(w *dumpfmt.Writer, typ int32, ino uint32, di dumpfmt.DumpInode, data []byte) error {
	nseg := (len(data) + dumpfmt.TPBSize - 1) / dumpfmt.TPBSize
	if nseg == 0 {
		nseg = 1
	}
	first := true
	for seg := 0; seg < nseg; {
		chunk := nseg - seg
		if chunk > dumpfmt.MaxSegsPerHeader {
			chunk = dumpfmt.MaxSegsPerHeader
		}
		addrs := make([]byte, chunk)
		for i := range addrs {
			addrs[i] = 1
		}
		t := typ
		if !first {
			t = dumpfmt.TSAddr
		}
		h := &dumpfmt.Header{Type: t, Inumber: ino, Dinode: di, Count: int32(chunk), Addrs: addrs}
		if err := w.WriteHeader(h); err != nil {
			return err
		}
		for i := 0; i < chunk; i++ {
			off := (seg + i) * dumpfmt.TPBSize
			endOff := off + dumpfmt.TPBSize
			if endOff > len(data) {
				endOff = len(data)
			}
			var s []byte
			if off < len(data) {
				s = data[off:endOff]
			}
			if err := w.WriteSegment(s); err != nil {
				return err
			}
		}
		seg += chunk
		first = false
	}
	return nil
}

func toDumpInode(ino *wafl.Inode) dumpfmt.DumpInode {
	return dumpfmt.DumpInode{
		Mode:  ino.Mode,
		Nlink: ino.Nlink,
		UID:   ino.UID,
		GID:   ino.GID,
		Size:  ino.Size,
		Atime: ino.Atime,
		Mtime: ino.Mtime,
		XMode: ino.XMode,
	}
}
