package logical

import "sort"

// MaxLevel is the deepest incremental level, matching the 0–9 scheme
// of BSD dump that the paper describes.
const MaxLevel = 9

// DumpDates records when each (filesystem, level) was last dumped —
// the /etc/dumpdates of BSD dump. An incremental dump at level L backs
// up everything changed since the most recent dump at any level < L
// (its "base").
type DumpDates struct {
	dates map[string]map[int]int64
}

// NewDumpDates returns an empty history.
func NewDumpDates() *DumpDates {
	return &DumpDates{dates: make(map[string]map[int]int64)}
}

// Base returns the base date for a level-L dump of fsid: the latest
// recorded date among levels 0..L-1, or 0 (dump everything) if none.
func (d *DumpDates) Base(fsid string, level int) int64 {
	var base int64
	for l, date := range d.dates[fsid] {
		if l < level && date > base {
			base = date
		}
	}
	return base
}

// Record stores that a level-L dump of fsid completed at date. Deeper
// levels' stale records are cleared, as a new base invalidates them.
func (d *DumpDates) Record(fsid string, level int, date int64) {
	m := d.dates[fsid]
	if m == nil {
		m = make(map[int]int64)
		d.dates[fsid] = m
	}
	m[level] = date
	for l := range m {
		if l > level {
			delete(m, l)
		}
	}
}

// DumpDateEntry is one (filesystem, level, date) line of the history.
type DumpDateEntry struct {
	FSID  string
	Level int
	Date  int64
}

// Entries returns the history as a sorted slice, so two histories can
// be compared — e.g. one rebuilt from the catalog journal, which is
// where the dates persist, against the one a dump recorded in memory.
func (d *DumpDates) Entries() []DumpDateEntry {
	var out []DumpDateEntry
	for fsid, m := range d.dates {
		for l, date := range m {
			out = append(out, DumpDateEntry{FSID: fsid, Level: l, Date: date})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FSID != out[j].FSID {
			return out[i].FSID < out[j].FSID
		}
		return out[i].Level < out[j].Level
	})
	return out
}
