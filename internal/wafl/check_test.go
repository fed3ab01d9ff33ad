package wafl

import (
	"fmt"
	"strings"
	"testing"
)

// White-box corruption tests: damage specific structures and confirm
// the checker names the problem. A checker that never fires is worse
// than none.

func checkProblems(t *testing.T, fs *FS) []string {
	t.Helper()
	problems, err := fs.Check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

func wantProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Fatalf("no problem mentions %q; got %v", substr, problems)
}

func TestCheckDetectsStrayActiveBit(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/f", randBytes(1, 8192), 0644)
	fs.CP(ctx)
	// Mark a free block active: leaked space.
	for b := BlockNo(8); int(b) < fs.NumBlocks(); b++ {
		if fs.bmap.words[b] == 0 {
			fs.bmap.setActive(b)
			break
		}
	}
	problems := checkProblems(t, fs)
	wantProblem(t, problems, "referenced by nothing")
	// setActive keeps the allocator's free count exact.
	for _, p := range problems {
		if strings.Contains(p, "free-block count") {
			t.Fatalf("setActive left the free count stale: %s", p)
		}
	}
}

func TestCheckDetectsMissingActiveBit(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.WriteFile(ctx, "/f", randBytes(2, 8192), 0644)
	fs.CP(ctx)
	pbn, err := fs.ActiveView().BlockAt(ctx, ino, 0)
	if err != nil || pbn == 0 {
		t.Fatal("no block to corrupt")
	}
	fs.bmap.words[pbn] &^= ActiveBit
	wantProblem(t, checkProblems(t, fs), "not active in the map")
}

func TestCheckDetectsDoubleReference(t *testing.T) {
	fs := newFS(t, 512)
	a, _ := fs.WriteFile(ctx, "/a", randBytes(3, 4096), 0644)
	b, _ := fs.WriteFile(ctx, "/b", randBytes(4, 4096), 0644)
	fs.CP(ctx)
	// Point b's first block at a's first block.
	pa, _ := fs.ActiveView().BlockAt(ctx, a, 0)
	stB, err := fs.state(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	old := stB.ino.Direct[0]
	stB.ino.Direct[0] = pa
	stB.inodeDirty = true
	fs.bmap.free(old)
	wantProblem(t, checkProblems(t, fs), "referenced by both")
}

func TestCheckDetectsWrongNlink(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.WriteFile(ctx, "/f", []byte("x"), 0644)
	st, err := fs.state(ctx, ino)
	if err != nil {
		t.Fatal(err)
	}
	st.ino.Nlink = 5
	st.inodeDirty = true
	wantProblem(t, checkProblems(t, fs), "nlink")
}

func TestCheckDetectsDanglingDirEntry(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.WriteFile(ctx, "/victim", []byte("x"), 0644)
	// Free the inode behind the directory's back.
	if err := fs.freeInode(ctx, ino); err != nil {
		t.Fatal(err)
	}
	wantProblem(t, checkProblems(t, fs), "unallocated inode")
}

func TestCheckDetectsSizeBeyondTree(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.WriteFile(ctx, "/f", randBytes(5, 3*BlockSize), 0644)
	fs.CP(ctx)
	st, err := fs.state(ctx, ino)
	if err != nil {
		t.Fatal(err)
	}
	st.ino.Size = BlockSize // blocks now map beyond the claimed size
	st.inodeDirty = true
	wantProblem(t, checkProblems(t, fs), "beyond its size")
}

func TestCheckCleanOnHealthyChurn(t *testing.T) {
	// After a storm of mixed operations the checker must stay silent —
	// guarding against over-eager rules as much as missed corruption.
	fs := newFS(t, 4096)
	for i := 0; i < 5; i++ {
		fs.WriteFile(ctx, "/d/a", randBytes(int64(i), 10000), 0644)
		fs.WriteFile(ctx, "/d/b", randBytes(int64(i+50), 200), 0600)
		fs.Symlink(ctx, RootIno, "l", "/d/a")
		ino, _ := fs.ActiveView().Namei(ctx, "/d/a")
		fs.Link(ctx, ino, RootIno, "hard")
		fs.CreateSnapshot(ctx, "s")
		fs.RemovePath(ctx, "/d/b")
		fs.RemovePath(ctx, "/l")
		fs.Remove(ctx, RootIno, "hard")
		fs.DeleteSnapshot(ctx, "s")
	}
	if problems := checkProblems(t, fs); len(problems) > 0 {
		t.Fatalf("healthy filesystem flagged: %v", problems)
	}
}

func TestCheckDetectsFreeCountDrift(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/f", randBytes(6, 8192), 0644)
	fs.bmap.nfree += 3
	n := fs.bmap.nfree
	wantProblem(t, checkProblems(t, fs), fmt.Sprintf("free-block count %d, recount %d", n, n-3))
}
