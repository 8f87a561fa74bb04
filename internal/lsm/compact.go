package lsm

import (
	"bytes"
	"errors"
	"time"
)

// Leveled compaction. L0 tables overlap (each is one flushed memtable);
// once l0CompactTrigger of them accumulate, all of L0 merges with the
// overlapping span of L1. Deeper levels are sorted non-overlapping runs
// with geometric size limits; when level n outgrows its limit, one of its
// tables merges with the overlapping tables of level n+1. Output runs are
// split at TargetFileBytes.

// levelFanout is the size ratio between adjacent levels.
const levelFanout = 10

// compactor is the background compaction loop. Work is triggered after
// flushes and after each compaction (the cascade check), with a slow ticker
// as a safety net.
func (e *Engine) compactor() {
	defer e.wg.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-e.compactSignal():
		case <-tick.C:
		}
		for {
			did, err := e.compactOnce()
			if err != nil || !did {
				break
			}
			select {
			case <-e.quit:
				return
			default:
			}
		}
	}
}

// compactC is created lazily-safe in Open; compactSignal just exposes it.
func (e *Engine) compactSignal() <-chan struct{} { return e.compactC }

// maybeScheduleCompaction nudges the compactor if any level is over budget.
func (e *Engine) maybeScheduleCompaction() {
	e.mu.Lock()
	need := e.needsCompactionLocked()
	e.mu.Unlock()
	if !need {
		return
	}
	select {
	case e.compactC <- struct{}{}:
	default:
	}
}

func (e *Engine) needsCompactionLocked() bool {
	if len(e.levels) > 0 && len(e.levels[0]) >= l0CompactTrigger {
		return true
	}
	for n := 1; n < len(e.levels); n++ {
		if e.levelBytesLocked(n) > e.levelLimit(n) {
			return true
		}
	}
	return false
}

func (e *Engine) levelBytesLocked(n int) int64 {
	var total int64
	for _, t := range e.levels[n] {
		total += t.bytes
	}
	return total
}

// levelLimit returns level n's byte budget (n >= 1).
func (e *Engine) levelLimit(n int) int64 {
	limit := e.opts.LevelBaseBytes
	for i := 1; i < n; i++ {
		limit *= levelFanout
	}
	return limit
}

// compaction describes one picked merge: inputs from srcLevel plus the
// overlapping tables of srcLevel+1, all pinned.
type compaction struct {
	srcLevel int
	inputs   []*table // from srcLevel (L0: all of it, newest first)
	overlaps []*table // from srcLevel+1, key order
}

func (c *compaction) allInputs() []*table {
	return append(append([]*table(nil), c.inputs...), c.overlaps...)
}

// pickCompactionLocked chooses the next merge, or ok=false when the tree is
// in shape. Caller holds mu; picked tables are pinned before returning.
func (e *Engine) pickCompactionLocked() (compaction, bool) {
	if len(e.levels) > 0 && len(e.levels[0]) >= l0CompactTrigger {
		c := compaction{srcLevel: 0, inputs: append([]*table(nil), e.levels[0]...)}
		lo, hi := keySpan(c.inputs)
		c.overlaps = e.overlapping(1, lo, hi)
		pin(c.allInputs())
		return c, true
	}
	for n := 1; n < len(e.levels); n++ {
		if e.levelBytesLocked(n) <= e.levelLimit(n) {
			continue
		}
		// Compact the level's first table; its key span picks the victims in
		// the next level down.
		t := e.levels[n][0]
		c := compaction{srcLevel: n, inputs: []*table{t}}
		c.overlaps = e.overlapping(n+1, t.minKey, t.maxKey)
		pin(c.allInputs())
		return c, true
	}
	return compaction{}, false
}

func pin(tables []*table) {
	for _, t := range tables {
		t.ref()
	}
}

// keySpan returns the smallest and largest keys covered by tables.
func keySpan(tables []*table) (lo, hi []byte) {
	for _, t := range tables {
		if lo == nil || bytes.Compare(t.minKey, lo) < 0 {
			lo = t.minKey
		}
		if hi == nil || bytes.Compare(t.maxKey, hi) > 0 {
			hi = t.maxKey
		}
	}
	return lo, hi
}

// overlapping returns level's tables intersecting [lo, hi] (inclusive).
// Caller holds mu.
func (e *Engine) overlapping(level int, lo, hi []byte) []*table {
	if level >= len(e.levels) {
		return nil
	}
	var out []*table
	for _, t := range e.levels[level] {
		if bytes.Compare(t.maxKey, lo) < 0 || bytes.Compare(t.minKey, hi) > 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// compactOnce runs a single compaction if one is due, reporting whether it
// did work. Serialized by compactMu (background loop vs CompactNow).
func (e *Engine) compactOnce() (bool, error) {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()

	e.mu.Lock()
	if e.closed && e.crashed.Load() {
		e.mu.Unlock()
		return false, ErrClosed
	}
	c, ok := e.pickCompactionLocked()
	e.mu.Unlock()
	if !ok {
		return false, nil
	}
	all := c.allInputs()
	defer unpin(all)

	outputs, err := e.mergeTables(c)
	if err != nil {
		if errors.Is(err, errFlushAborted) {
			return false, nil
		}
		return false, err
	}

	// Install: drop the inputs from their levels, slot the outputs into the
	// target level in key order, commit the manifest.
	target := c.srcLevel + 1
	e.manifestMu.Lock()
	e.mu.Lock()
	for len(e.levels) <= target {
		e.levels = append(e.levels, nil)
	}
	drop := make(map[uint64]bool, len(all))
	for _, t := range all {
		drop[t.num] = true
	}
	for _, n := range []int{c.srcLevel, target} {
		kept := e.levels[n][:0]
		for _, t := range e.levels[n] {
			if !drop[t.num] {
				kept = append(kept, t)
			}
		}
		e.levels[n] = kept
	}
	e.levels[target] = insertByKey(e.levels[target], outputs)
	man := e.manifestLocked()
	e.mu.Unlock()
	merr := writeManifest(e.opts.Dir, man)
	e.manifestMu.Unlock()
	if merr != nil {
		// The new tables are orphans; the old version is still the durable
		// root. Drop the outputs and surface the error.
		for _, t := range outputs {
			t.markObsolete()
		}
		return false, merr
	}
	for _, t := range all {
		t.markObsolete()
	}
	e.counters.compactions.Add(1)
	e.maybeScheduleCompaction() // cascade: the target level may now overflow
	return true, nil
}

// mergeTables streams the compaction inputs through a merge iterator into
// size-split output tables.
func (e *Engine) mergeTables(c compaction) ([]*table, error) {
	// Tombstones can be dropped only when no deeper level can hold an older
	// version of the key they mask.
	target := c.srcLevel + 1
	e.mu.Lock()
	dropTombstones := true
	for n := target + 1; n < len(e.levels); n++ {
		if len(e.levels[n]) > 0 {
			dropTombstones = false
			break
		}
	}
	e.mu.Unlock()

	// Sources newest first: srcLevel inputs (L0 is already newest-first; a
	// single deeper table trivially so), then the older overlapping run.
	srcs := make([]iterator, 0, len(c.inputs)+1)
	for _, t := range c.inputs {
		srcs = append(srcs, newTableIter(t, nil, nil, nil, &e.counters))
	}
	if len(c.overlaps) > 0 {
		srcs = append(srcs, newLevelIter(c.overlaps, nil, nil, nil, &e.counters))
	}
	for _, t := range c.allInputs() {
		e.counters.compactBytesIn.Add(t.bytes)
	}

	var outputs []*table
	var tw *tableWriter
	m := newMergeIter(srcs)
	var err error
	for m.next() {
		if m.tombstone() && dropTombstones {
			continue
		}
		if tw == nil {
			var num uint64
			e.mu.Lock()
			num = e.nextFile
			e.nextFile++
			e.mu.Unlock()
			tw, err = newTableWriter(e.opts.Dir, num, e.opts.BlockBytes, DefaultBloomBitsPerKey)
			if err != nil {
				break
			}
			tw.abort = func() bool { return e.crashed.Load() }
			tw.onBlock = func(n int) { e.counters.compactBytesOut.Add(int64(n)) }
			for _, t := range c.allInputs() {
				tw.observeLSN(t.maxLSN)
			}
		}
		if err = tw.add(m.key(), m.val(), m.tombstone()); err != nil {
			break
		}
		if tw.off >= e.opts.TargetFileBytes {
			var t *table
			t, err = tw.finish()
			if err != nil {
				break
			}
			outputs = append(outputs, t)
			tw = nil
		}
	}
	if err == nil {
		err = iterErr(srcs)
	}
	if err == nil && tw != nil {
		var t *table
		t, err = tw.finish()
		if err == nil {
			outputs = append(outputs, t)
			tw = nil
		}
	}
	if err != nil {
		if tw != nil && !errors.Is(err, errFlushAborted) {
			tw.abandon()
		}
		for _, t := range outputs {
			t.markObsolete()
		}
		return nil, err
	}
	return outputs, nil
}

// insertByKey merges the new tables into a level's key-ordered run.
func insertByKey(level, added []*table) []*table {
	out := append(level, added...)
	// Insertion sort: levels are short and mostly ordered already.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && bytes.Compare(out[j].minKey, out[j-1].minKey) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CompactNow synchronously drains all due compactions (tests use it for
// deterministic shaping).
func (e *Engine) CompactNow() error {
	for {
		did, err := e.compactOnce()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}
