package wafl_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// agedVolumes caches one aged filesystem per size: building it is far
// slower than the measured loop, and the loop leaves the volume in the
// same steady state it found it in.
var agedVolumes = map[int]*wafl.FS{}

// agedFS returns a volume of the given size filled to about half with
// an engineering-shaped tree and aged by churn, so free space is
// scattered the way the benchmark workloads see it.
func agedFS(b *testing.B, blocks int) *wafl.FS {
	b.Helper()
	if fs, ok := agedVolumes[blocks]; ok {
		return fs
	}
	ctx := context.Background()
	fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(blocks), nil, wafl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.DefaultSpec()
	spec.Files = blocks / 16
	paths, err := workload.Generate(ctx, fs, spec)
	if err != nil {
		b.Fatal(err)
	}
	age := workload.DefaultAge()
	age.ChurnPerRound = spec.Files / 4
	if _, err := workload.Age(ctx, fs, paths, age); err != nil {
		b.Fatal(err)
	}
	agedVolumes[blocks] = fs
	return fs
}

// BenchmarkWAFLWrite measures the write path a logical restore drives:
// each op writes sixteen 64 KiB files (create-or-truncate plus one
// 64 KiB Write each) and commits a consistency point. The two volume
// sizes hold the work per op fixed, so any cost that grows with the
// volume rather than with the data written shows as a gap between them.
func BenchmarkWAFLWrite(b *testing.B) {
	const filesPerOp, fileSize = 16, 64 << 10
	for _, blocks := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("vol=%dMiB", blocks*storage.BlockSize>>20), func(b *testing.B) {
			fs := agedFS(b, blocks)
			ctx := context.Background()
			data := make([]byte, fileSize)
			rand.New(rand.NewSource(1)).Read(data)
			var names [filesPerOp]string
			for f := range names {
				names[f] = fmt.Sprintf("/bench/w%02d", f)
			}
			b.SetBytes(filesPerOp * fileSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, name := range names {
					if _, err := fs.WriteFile(ctx, name, data, 0644); err != nil {
						b.Fatal(err)
					}
				}
				if err := fs.CP(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// readSets caches, per volume size, the files BenchmarkWAFLRead reads
// and the mount it reads them through, so the files are written once.
var readSets = map[int]*readSet{}

type readSet struct {
	view *wafl.View
	inos []wafl.Inum
}

// BenchmarkWAFLRead measures the read path a logical dump drives: each
// op reads sixteen 64 KiB files through View.ReadAt. The files rotate
// through a set four times the size of the buffer cache, so nearly
// every block read misses and takes the cache's fill-and-evict path.
// The reads go through a second mount of the aged volume, whose small
// cache sets that ratio without rebuilding the volume; they change
// nothing on it.
func BenchmarkWAFLRead(b *testing.B) {
	const filesPerOp, fileSize, files = 16, 64 << 10, 32
	const cacheBlocks = files * fileSize / storage.BlockSize / 4
	for _, blocks := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("vol=%dMiB", blocks*storage.BlockSize>>20), func(b *testing.B) {
			ctx := context.Background()
			rs, ok := readSets[blocks]
			if !ok {
				fs := agedFS(b, blocks)
				data := make([]byte, fileSize)
				rand.New(rand.NewSource(2)).Read(data)
				rs = &readSet{}
				for f := 0; f < files; f++ {
					ino, err := fs.WriteFile(ctx, fmt.Sprintf("/bench/r%02d", f), data, 0644)
					if err != nil {
						b.Fatal(err)
					}
					rs.inos = append(rs.inos, ino)
				}
				if err := fs.CP(ctx); err != nil {
					b.Fatal(err)
				}
				rfs, err := wafl.Mount(ctx, fs.Device(), nil, wafl.Options{CacheBlocks: cacheBlocks})
				if err != nil {
					b.Fatal(err)
				}
				rs.view = rfs.ActiveView()
				readSets[blocks] = rs
			}
			buf := make([]byte, fileSize)
			b.SetBytes(filesPerOp * fileSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for f := 0; f < filesPerOp; f++ {
					if _, err := rs.view.ReadAt(ctx, rs.inos[(i*filesPerOp+f)%files], 0, buf); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
