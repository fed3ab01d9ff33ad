package wafl

// The block map keeps one 32-bit word per volume block (paper §2.1):
// bit 0 says the block belongs to the active filesystem and bit s
// (1 ≤ s ≤ 20) says it belongs to the snapshot with id s. A block is
// free only when its whole word is zero.
//
// The in-memory map reflects the state the *next* consistency point
// will commit. Blocks referenced by the *last committed* consistency
// point are additionally held in the frozen set and are never
// reallocated before the next CP commits, so a crash can always fall
// back to the on-disk image.

// ActiveBit is the block-map bit plane of the live filesystem.
const ActiveBit uint32 = 1 << 0

// SnapBit returns the bit-plane mask for snapshot id s (1..MaxSnapshots).
func SnapBit(id int) uint32 { return 1 << uint(id) }

// blkmap is the in-memory block map plus the allocator state.
type blkmap struct {
	words  []uint32
	frozen []uint64 // bitset: referenced by the last committed CP
	cursor int      // next allocation probe position
	nfree  int      // allocatable blocks, kept exact at every transition
}

func newBlkmap(nblocks int) *blkmap {
	m := &blkmap{
		words:  make([]uint32, nblocks),
		frozen: make([]uint64, (nblocks+63)/64),
	}
	m.nfree = m.countFree()
	return m
}

func (m *blkmap) isFrozen(b BlockNo) bool {
	return m.frozen[b/64]&(1<<(uint(b)%64)) != 0
}

// refreeze recomputes the frozen set from the current words; called
// when a consistency point commits (everything now on disk is
// protected until the next CP).
func (m *blkmap) refreeze() {
	for i := range m.frozen {
		m.frozen[i] = 0
	}
	free := 0
	for b, w := range m.words {
		if w != 0 {
			m.frozen[b/64] |= 1 << (uint(b) % 64)
		} else if b >= fsinfoReserved {
			free++
		}
	}
	m.nfree = free
}

// alloc finds a free block near the cursor, marks it active and
// returns it. It returns 0 (an invalid block) when the volume is full.
// The moving cursor gives WAFL-ish locality: consecutive allocations
// are contiguous when free space is contiguous, and scattered when a
// mature filesystem has scattered its free space — the effect the
// paper's "mature data set" footnote describes.
func (m *blkmap) alloc() BlockNo {
	n := len(m.words)
	for i := 0; i < n; i++ {
		b := (m.cursor + i) % n
		if b < fsinfoReserved { // fsinfo blocks are never allocatable
			continue
		}
		if m.words[b] == 0 && !m.isFrozen(BlockNo(b)) {
			m.words[b] = ActiveBit
			m.cursor = b + 1
			m.nfree--
			return BlockNo(b)
		}
	}
	return 0
}

// free clears the active bit of b. The block becomes reusable only
// once no snapshot plane holds it and the next CP commits.
func (m *blkmap) free(b BlockNo) {
	if b < fsinfoReserved || int(b) >= len(m.words) {
		return
	}
	if m.words[b] == ActiveBit && !m.isFrozen(b) {
		m.nfree++
	}
	m.words[b] &^= ActiveBit
}

// setActive marks b as belonging to the active filesystem without
// going through the allocator (used by mkfs and image restore).
func (m *blkmap) setActive(b BlockNo) {
	if int(b) >= len(m.words) {
		return
	}
	if b >= fsinfoReserved && m.words[b] == 0 && !m.isFrozen(b) {
		m.nfree--
	}
	m.words[b] |= ActiveBit
}

// copyPlane copies the src plane into the dst plane across the map,
// implementing snapshot creation (active→snap) and, inverted, nothing
// else: snapshot deletion just clears the plane.
func (m *blkmap) copyPlane(srcMask, dstMask uint32) {
	for i, w := range m.words {
		if w&srcMask != 0 {
			m.words[i] |= dstMask
		} else {
			m.words[i] &^= dstMask
		}
	}
	m.nfree = m.countFree()
}

// clearPlane removes every bit of the given plane (snapshot deletion).
func (m *blkmap) clearPlane(mask uint32) {
	for i := range m.words {
		m.words[i] &^= mask
	}
	m.nfree = m.countFree()
}

// countPlane returns the number of blocks in the given plane.
func (m *blkmap) countPlane(mask uint32) int {
	n := 0
	for _, w := range m.words {
		if w&mask != 0 {
			n++
		}
	}
	return n
}

// freeBlocks returns the number of blocks allocatable right now.
func (m *blkmap) freeBlocks() int { return m.nfree }

// countFree counts the allocatable blocks — past the fsinfo blocks,
// zero word, not frozen — by scanning the whole map. Only the
// snapshot plane operations above and Check use it; every
// single-block transition keeps nfree up to date instead.
func (m *blkmap) countFree() int {
	n := 0
	for b, w := range m.words {
		if b >= fsinfoReserved && w == 0 && !m.isFrozen(BlockNo(b)) {
			n++
		}
	}
	return n
}
