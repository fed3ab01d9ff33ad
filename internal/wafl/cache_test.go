package wafl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/nvram"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestBlockCacheMatchesReferenceLRU drives the recycling cache and a
// plain remove-on-drop LRU with the same random gets, inserts and
// drops: both must hold the same blocks, in the same order, with the
// same contents and hit/miss counts, so recycling changes no figure.
func TestBlockCacheMatchesReferenceLRU(t *testing.T) {
	const size = 8
	r := rand.New(rand.NewSource(15))
	c := newBlockCache(size)
	var ref []BlockNo // front = most recent
	refContents := map[BlockNo]byte{}
	find := func(bno BlockNo) int {
		for i, b := range ref {
			if b == bno {
				return i
			}
		}
		return -1
	}
	toFront := func(i int) {
		bno := ref[i]
		copy(ref[1:i+1], ref[:i])
		ref[0] = bno
	}
	var hits, misses int64
	for step := 0; step < 20000; step++ {
		bno := BlockNo(r.Intn(3 * size))
		switch r.Intn(3) {
		case 0:
			got := c.get(bno)
			if i := find(bno); i >= 0 {
				hits++
				toFront(i)
				if got == nil || got[0] != refContents[bno] {
					t.Fatalf("step %d: get(%d) = %v, want contents %d", step, bno, got, refContents[bno])
				}
			} else {
				misses++
				if got != nil {
					t.Fatalf("step %d: get(%d) hit a block the reference does not hold", step, bno)
				}
			}
		case 1:
			b := c.buf()
			b[0] = byte(step)
			c.insert(bno, b)
			refContents[bno] = byte(step)
			if i := find(bno); i >= 0 {
				toFront(i)
			} else {
				ref = append([]BlockNo{bno}, ref...)
				if len(ref) > size {
					ref = ref[:size]
				}
			}
		case 2:
			c.drop(bno)
			if i := find(bno); i >= 0 {
				ref = append(ref[:i], ref[i+1:]...)
			}
		}
		var order []BlockNo
		for e := c.lru.Front(); e != nil; e = e.Next() {
			if ent := e.Value.(*cacheEntry); ent.data != nil {
				order = append(order, ent.bno)
			}
		}
		if fmt.Sprint(order) != fmt.Sprint(ref) || len(c.index) != len(ref) {
			t.Fatalf("step %d: cache holds %v (index %d), reference %v", step, order, len(c.index), ref)
		}
	}
	if h, m := c.stats(); h != hits || m != misses {
		t.Fatalf("stats = %d hits %d misses, reference %d and %d", h, m, hits, misses)
	}
}

// TestTinyCacheDoubleIndirect runs a file with seven L2 pointer blocks
// through a four-block cache. Walking its tree reads the L1 block and
// then every L2 block, and by the fifth L2 read the cache has recycled
// L1's buffer, so a walk that kept reading L1 from the cache would
// follow garbage pointers from the sixth L2 on.
func TestTinyCacheDoubleIndirect(t *testing.T) {
	opts := Options{CacheBlocks: 4}
	dev := storage.NewMemDevice(16384)
	fs, err := Mkfs(ctx, dev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	data := randBytes(7, (NDirect+7*PtrsPerBlock+1)*BlockSize)
	if _, err := fs.WriteFile(ctx, "/big", data, 0644); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	check(t, fs)

	// A fresh mount has no block maps loaded, so truncate and remove
	// build theirs by walking the tree too.
	if fs, err = Mount(ctx, dev, nil, opts); err != nil {
		t.Fatal(err)
	}
	readBack := func(want []byte) {
		t.Helper()
		got, err := fs.ActiveView().ReadFile(ctx, "/big")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read back %d bytes that differ from the %d written", len(got), len(want))
		}
	}
	readBack(data)
	ino, err := fs.ActiveView().Namei(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	short := uint64(NDirect+3*PtrsPerBlock+5) * BlockSize
	if err := fs.Truncate(ctx, ino, short); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
	readBack(data[:short])

	if fs, err = Mount(ctx, dev, nil, opts); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemovePath(ctx, "/big"); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
	if got := fs.FreeBlocks(); got != free {
		t.Fatalf("free blocks after remove = %d, want %d as before the write", got, free)
	}
}

// yieldingDevice models a disk whose transfers complete after a delay:
// ReadBlock and WriteBlock sleep the calling simulated process first
// and move the data after.
type yieldingDevice struct{ storage.Device }

func (d yieldingDevice) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	if p := sim.ProcFrom(ctx); p != nil {
		p.Sleep(time.Millisecond)
	}
	return d.Device.ReadBlock(ctx, bno, buf)
}

func (d yieldingDevice) WriteBlock(ctx context.Context, bno int, data []byte) error {
	if p := sim.ProcFrom(ctx); p != nil {
		p.Sleep(time.Millisecond)
	}
	return d.Device.WriteBlock(ctx, bno, data)
}

// TestCacheFillInvisibleUntilRead has two simulated processes read the
// same file, block by block, through a yielding device and a two-block
// cache. The second reader runs while the first waits on each read; a
// miss whose buffer entered the cache before the read returned would
// hand the second reader a block not filled yet.
func TestCacheFillInvisibleUntilRead(t *testing.T) {
	env := sim.NewEnv()
	fs, err := Mkfs(ctx, yieldingDevice{storage.NewMemDevice(1024)}, nil, Options{CacheBlocks: 2, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(11, 24*BlockSize)
	ino, err := fs.WriteFile(ctx, "/f", data, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 2)
	for i := range got {
		i := i
		env.Spawn(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			pctx := sim.WithProc(context.Background(), p)
			buf := make([]byte, len(data))
			for off := 0; off < len(buf); off += BlockSize {
				if _, err := fs.ActiveView().ReadAt(pctx, ino, uint64(off), buf[off:off+BlockSize]); err != nil {
					t.Error(err)
					return
				}
			}
			got[i] = buf
		})
	}
	env.Run()
	for i, b := range got {
		if !bytes.Equal(b, data) {
			t.Fatalf("reader %d got the wrong bytes", i)
		}
	}
}

// TestCPHandoverInvisibleToReaders reads a file while a consistency
// point flushes it. The CP hands each dirty buffer to a two-block
// cache, which soon evicts it and recycles it for the reader's misses
// on another file; the reader, which takes no lock, must then find the
// flushed blocks through the block map, not through staged copies.
func TestCPHandoverInvisibleToReaders(t *testing.T) {
	env := sim.NewEnv()
	fs, err := Mkfs(ctx, yieldingDevice{storage.NewMemDevice(1024)}, nil, Options{CacheBlocks: 2, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	other := randBytes(12, 8*BlockSize)
	oino, err := fs.WriteFile(ctx, "/other", other, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	data := randBytes(13, 16*BlockSize)
	ino, err := fs.WriteFile(ctx, "/f", data, 0644) // staged until the CP below
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("cp", func(p *sim.Proc) {
		if err := fs.CP(sim.WithProc(context.Background(), p)); err != nil {
			t.Error(err)
		}
	})
	env.Spawn("reader", func(p *sim.Proc) {
		pctx := sim.WithProc(context.Background(), p)
		blk := make([]byte, BlockSize)
		buf := make([]byte, len(data))
		for step := 0; step < 24; step++ {
			if _, err := fs.ActiveView().ReadAt(pctx, oino, uint64(step%8)*BlockSize, blk); err != nil {
				t.Error(err)
				return
			}
			if _, err := fs.ActiveView().ReadAt(pctx, ino, 0, buf); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, data) {
				t.Errorf("step %d: the file being flushed read back wrong bytes", step)
				return
			}
		}
	})
	env.Run()
	check(t, fs)
}

// TestReadAtAllocsNothing pins the read path's allocation contract: a
// 64 KiB ReadAt that misses on all sixteen blocks of a full cache
// reuses the evicted entries and their buffers.
func TestReadAtAllocsNothing(t *testing.T) {
	dev := storage.NewMemDevice(1024)
	fs, err := Mkfs(ctx, dev, nil, Options{CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Five 16-block files cycle through the 64-block cache, so every
	// read of the next one misses on each of its blocks.
	var inos [5]Inum
	for i := range inos {
		if inos[i], err = fs.WriteFile(ctx, fmt.Sprintf("/f%d", i), randBytes(int64(i), 64<<10), 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	view := fs.ActiveView()
	buf := make([]byte, 64<<10)
	next := 0
	read := func() {
		if _, err := view.ReadAt(ctx, inos[next%len(inos)], 0, buf); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range inos {
		read()
	}
	_, missesBefore := fs.CacheStats()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("64 KiB ReadAt allocated %v times, want 0", allocs)
	}
	if _, misses := fs.CacheStats(); misses-missesBefore != 101*16 {
		t.Fatalf("%d misses in 101 reads of 16 blocks; the reads must miss to test recycling", misses-missesBefore)
	}
}

// TestWriteAllocs pins the write path's allocation contract: a
// block-aligned 16 KiB Write allocates its four staged blocks and the
// one NVRAM entry, and nothing else.
func TestWriteAllocs(t *testing.T) {
	dev := storage.NewMemDevice(4096)
	fs, err := Mkfs(ctx, dev, nvram.New(nil, nvram.Params{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(ctx, RootIno, "f", 0644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(5, 16<<10)
	off := uint64(0)
	write := func() {
		if err := fs.Write(ctx, ino, off, data); err != nil {
			t.Fatal(err)
		}
		off += uint64(len(data))
	}
	write()
	if allocs := testing.AllocsPerRun(100, write); allocs != 5 {
		t.Fatalf("16 KiB Write allocated %v times, want 5", allocs)
	}
}

// TestLookupAllocsIndependentOfDirSize pins the directory scan's
// allocation contract: names are compared in place and the block
// buffer stays on the stack, so finding the last of 200 entries
// allocates nothing, like finding one of two.
func TestLookupAllocsIndependentOfDirSize(t *testing.T) {
	dev := storage.NewMemDevice(1024)
	fs, err := Mkfs(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lookupAllocs := func(dir string, entries int) float64 {
		d, err := fs.MkdirAll(ctx, dir, 0755)
		if err != nil {
			t.Fatal(err)
		}
		var last string
		for i := 0; i < entries; i++ {
			last = fmt.Sprintf("file%03d", i)
			if _, err := fs.Create(ctx, d, last, 0644, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		view := fs.ActiveView()
		return testing.AllocsPerRun(100, func() {
			if _, _, err := view.lookupDir(ctx, d, last); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := lookupAllocs("/small", 2)
	large := lookupAllocs("/large", 200)
	if large > small || small != 0 {
		t.Fatalf("lookup in a 200-entry directory allocated %v times, in a 2-entry one %v; want 0", large, small)
	}
}
