package wafl

import "testing"

// TestBlkmapFreeCountTransitions walks the allocator through each
// word transition directly, including states a mounted filesystem
// only passes through inside a consistency point (a block allocated
// and freed before the commit) or never reaches (a stale snapshot
// plane on an unfrozen block), and checks the incremental count
// against a recount after each step.
func TestBlkmapFreeCountTransitions(t *testing.T) {
	const n = 256
	m := newBlkmap(n)
	step := func(what string, want int) {
		t.Helper()
		if m.freeBlocks() != want || m.countFree() != want {
			t.Fatalf("%s: free count %d, recount %d, want %d", what, m.freeBlocks(), m.countFree(), want)
		}
	}
	step("fresh map", n-fsinfoReserved)
	m.refreeze()
	step("refreeze of an empty map skips the fsinfo blocks", n-fsinfoReserved)
	for b := BlockNo(0); b < fsinfoReserved; b++ {
		m.setActive(b)
	}
	step("fsinfo blocks marked active", n-fsinfoReserved)

	a := m.alloc()
	step("alloc", n-fsinfoReserved-1)
	m.free(a)
	step("free of a block allocated since the last commit", n-fsinfoReserved)

	a = m.alloc()
	m.refreeze()
	m.free(a)
	step("free of a committed block", n-fsinfoReserved-1)
	m.free(a)
	step("second free of the same block", n-fsinfoReserved-1)
	m.refreeze()
	step("commit after the free", n-fsinfoReserved)

	m.setActive(a)
	step("setActive of a free block", n-fsinfoReserved-1)
	m.setActive(a)
	step("setActive of an active block", n-fsinfoReserved-1)

	// Stale plane bits on unfrozen blocks: the plane operations must
	// count the words they zero.
	b, c := a+1, a+2
	m.words[b] = SnapBit(1)
	m.words[c] = SnapBit(2)
	m.nfree -= 2
	step("stale planes", n-fsinfoReserved-3)
	m.clearPlane(SnapBit(1))
	step("clearPlane zeroes a word", n-fsinfoReserved-2)
	m.copyPlane(ActiveBit, SnapBit(2))
	step("copyPlane clears a stale destination bit", n-fsinfoReserved-1)
	if m.words[a] != ActiveBit|SnapBit(2) {
		t.Fatalf("copyPlane left word %#x on an active block", m.words[a])
	}
}
