package wafl

import (
	"context"
	"fmt"
)

// Check is the fsck-style consistency checker. The paper notes WAFL
// needs no boot-time fsck because every consistency point is
// self-consistent; Check verifies that property after every test and
// after crash recovery, image restore and incremental application.
//
// It verifies, over the on-disk state plus staged changes:
//   - every block referenced by the active filesystem (file data,
//     pointer blocks, the inode file, the block-map file, fsinfo) has
//     its active bit set, and no block is referenced twice;
//   - every block with the active bit set is referenced;
//   - directory structure: entries point at allocated inodes, "." and
//     ".." are correct, every allocated inode is reachable from the
//     root, and link counts match;
//   - file sizes are consistent with their block trees;
//   - the allocator's incremental free-block count matches a full
//     recount of the map.
//
// Check returns a list of problems (empty means consistent).
func (fs *FS) Check(ctx context.Context) ([]string, error) {
	var problems []string
	addf := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// The CP below recounts the free blocks, so compare the
	// incremental count first.
	if n, m := fs.bmap.nfree, fs.bmap.countFree(); n != m {
		addf("free-block count %d, recount %d", n, m)
	}

	// Checking is only valid against committed state.
	if err := fs.CP(ctx); err != nil {
		return nil, err
	}

	refs := make(map[BlockNo]string) // block → first referrer
	ref := func(b BlockNo, who string) {
		if b == 0 {
			return
		}
		if int(b) >= int(fs.info.NBlocks) {
			addf("%s references out-of-range block %d", who, b)
			return
		}
		if prev, ok := refs[b]; ok {
			addf("block %d referenced by both %s and %s", b, prev, who)
			return
		}
		refs[b] = who
		if fs.bmap.words[b]&ActiveBit == 0 {
			addf("%s references block %d which is not active in the map", who, b)
		}
	}
	// The reserved head of the volume holds the two fsinfo copies;
	// they cannot go through ref() because BlockNo 0 doubles as the
	// hole sentinel in block trees.
	for b := BlockNo(0); b < fsinfoReserved; b++ {
		refs[b] = "fsinfo"
	}

	refTree := func(ino *Inode, who string) {
		fs.treeBlocks(ctx, ino,
			func(fbn uint32, pbn BlockNo) { ref(pbn, fmt.Sprintf("%s data fbn %d", who, fbn)) },
			func(pbn BlockNo) { ref(pbn, who+" ptr") })
	}
	refTree(&fs.info.InodeFile, "inode file")
	refTree(&fs.info.BlkmapFile, "block-map file")

	// Walk all inodes; verify trees and gather link counts.
	nlinks := make(map[Inum]uint32) // expected from directory scan
	var dirs []Inum
	allocated := make(map[Inum]Inode)
	for i := RootIno; i < fs.nextIno; i++ {
		ino, err := fs.readInodeRaw(ctx, i)
		if err != nil {
			return nil, err
		}
		if !ino.Allocated() {
			continue
		}
		allocated[i] = ino
		who := fmt.Sprintf("inode %d", i)
		refTree(&ino, who)
		// Size sanity: no mapped block at or past the size bound.
		maxBlocks := ino.Blocks()
		fs.treeBlocks(ctx, &ino, func(fbn uint32, pbn BlockNo) {
			if fbn >= maxBlocks {
				addf("%s maps fbn %d beyond its size %d", who, fbn, ino.Size)
			}
		}, nil)
		if IsDir(ino.Mode) {
			dirs = append(dirs, i)
		}
	}

	// Directory structure and reachability.
	view := fs.ActiveView()
	reachable := map[Inum]bool{RootIno: true}
	for _, dir := range dirs {
		ents, err := view.Readdir(ctx, dir)
		if err != nil {
			addf("readdir of inode %d failed: %v", dir, err)
			continue
		}
		sawDot, sawDotDot := false, false
		for _, e := range ents {
			target, ok := allocated[e.Ino]
			if !ok {
				addf("dir %d entry %q points at unallocated inode %d", dir, e.Name, e.Ino)
				continue
			}
			switch e.Name {
			case ".":
				sawDot = true
				if e.Ino != dir {
					addf("dir %d has '.' pointing at %d", dir, e.Ino)
				}
			case "..":
				sawDotDot = true
				nlinks[e.Ino]++ // counts toward the parent
			default:
				nlinks[e.Ino]++
				reachable[e.Ino] = true
				if IsDir(target.Mode) {
					// dirs also get "." self-link
				}
			}
		}
		if !sawDot || !sawDotDot {
			addf("dir %d missing '.' or '..'", dir)
		}
		nlinks[dir]++ // its own "."
	}
	// Note the root needs no special credit: it has no name entry in
	// any parent, but its own ".." points at itself and supplies the
	// equivalent link.

	for i, ino := range allocated {
		if !reachable[i] && i != RootIno {
			addf("inode %d (%s) not reachable from root", i, ino.String())
		}
		if want := nlinks[i]; want != ino.Nlink {
			addf("inode %d has nlink %d, directory scan says %d", i, ino.Nlink, want)
		}
	}

	// Every active block must be referenced.
	for b := BlockNo(0); int(b) < int(fs.info.NBlocks); b++ {
		if fs.bmap.words[b]&ActiveBit != 0 {
			if _, ok := refs[b]; !ok {
				addf("block %d is active in the map but referenced by nothing", b)
			}
		}
	}
	return problems, nil
}

// MustCheck runs Check and returns an error listing any problems;
// convenient in integration code.
func (fs *FS) MustCheck(ctx context.Context) error {
	problems, err := fs.Check(ctx)
	if err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w: %d problems, first: %s", ErrCorrupt, len(problems), problems[0])
	}
	return nil
}
