package wafl

import "container/list"

// blockCache is an LRU cache of physical blocks. Because the
// filesystem is copy-on-write, a block's contents never change while
// it is referenced, which makes coherence trivial: entries are
// inserted on read and on write, and a freed-then-reused block is
// simply overwritten by the write that reuses it.
//
// The cache owns the buffers it holds and recycles them: a full cache
// reuses its least-recently-used entry for the next block, and the
// evicted buffer goes to a small spare list that buf hands out again.
// A slice the cache returned is therefore valid only until its holder
// next calls the cache or a device.
type blockCache struct {
	max    int
	lru    *list.List // of cacheEntry, front = most recent
	index  map[BlockNo]*list.Element
	spare  [][]byte // evicted or dropped buffers for buf to reuse
	hits   int64
	misses int64
}

// maxSpare bounds the spare list. Only a read in flight holds a buffer
// between buf and insert, so a few spares cover the simulated
// processes that can be reading at once.
const maxSpare = 16

type cacheEntry struct {
	bno  BlockNo
	data []byte // nil once dropped
}

func newBlockCache(maxBlocks int) *blockCache {
	return &blockCache{
		max:   maxBlocks,
		lru:   list.New(),
		index: make(map[BlockNo]*list.Element),
	}
}

// get returns the cached contents of bno, or nil. The returned slice
// is owned by the cache; callers must not modify it.
func (c *blockCache) get(bno BlockNo) []byte {
	if e, ok := c.index[bno]; ok {
		c.lru.MoveToFront(e)
		c.hits++
		return e.Value.(*cacheEntry).data
	}
	c.misses++
	return nil
}

// buf returns a block buffer to fill and pass to insert, or to give
// back with release: a recycled one when a spare is free.
func (c *blockCache) buf() []byte {
	if n := len(c.spare); n > 0 {
		b := c.spare[n-1]
		c.spare = c.spare[:n-1]
		return b
	}
	return make([]byte, BlockSize)
}

// release returns an unused buffer from buf to the spare list.
func (c *blockCache) release(b []byte) {
	if len(c.spare) < maxSpare {
		c.spare = append(c.spare, b)
	}
}

// insert makes data the cached contents of bno, taking ownership of
// data: the caller must not modify it afterwards. Replacing an entry
// drops the old buffer rather than recycling it; evicting the
// least-recently-used entry reuses that entry for bno and recycles
// its buffer.
func (c *blockCache) insert(bno BlockNo, data []byte) {
	if c.max <= 0 {
		return
	}
	if e, ok := c.index[bno]; ok {
		e.Value.(*cacheEntry).data = data
		c.lru.MoveToFront(e)
		return
	}
	if c.lru.Len() < c.max {
		c.index[bno] = c.lru.PushFront(&cacheEntry{bno: bno, data: data})
		return
	}
	e := c.lru.Back()
	ent := e.Value.(*cacheEntry)
	if ent.data != nil {
		delete(c.index, ent.bno)
		c.release(ent.data)
	}
	ent.bno, ent.data = bno, data
	c.lru.MoveToFront(e)
	c.index[bno] = e
}

// drop removes bno from the cache (used when a block is freed). Its
// entry stays in the list, empty, at the back: the next insert reuses
// it before it evicts any cached block, so the cached blocks and their
// order are as if the entry had been removed.
func (c *blockCache) drop(bno BlockNo) {
	if e, ok := c.index[bno]; ok {
		delete(c.index, bno)
		ent := e.Value.(*cacheEntry)
		c.release(ent.data)
		ent.data = nil
		c.lru.MoveToBack(e)
	}
}

// stats returns cumulative hits and misses.
func (c *blockCache) stats() (hits, misses int64) { return c.hits, c.misses }
