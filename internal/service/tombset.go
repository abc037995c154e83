package service

import (
	"slices"
	"time"
)

// tombSet is the instance loop's memory of finished instance ids: a late
// frame for one is dropped and a Propose reusing one is refused. Ids issued
// in sequence finish close together, so the set keeps them as sorted,
// disjoint [lo, hi] ranges of contiguous ids, merging ids one apart into one
// range, and its memory grows with the gaps between finished ids, not with
// their count.
//
// Ids are forgotten a generation at a time. add writes to cur; expire
// moves cur to old, dropping the previous old, once cur is ttl old. An id
// is therefore remembered for at least ttl after add and, with expire
// called every tick, at most 2·ttl plus two ticks.
type tombSet struct {
	ttl      time.Duration
	since    time.Time // when cur began
	cur, old []tombRange
}

// tombRange is an inclusive range of contiguous ids.
type tombRange struct{ lo, hi uint64 }

func newTombSet(ttl time.Duration, now time.Time) tombSet {
	return tombSet{ttl: ttl, since: now}
}

// has reports whether id finished within the remembered window. A late
// frame almost always names one of the latest finished ids, so cur's
// newest range is tried before any search.
func (t *tombSet) has(id uint64) bool {
	if n := len(t.cur); n > 0 && t.cur[n-1].lo <= id && id <= t.cur[n-1].hi {
		return true
	}
	return covers(t.cur, id) || covers(t.old, id)
}

// add remembers id, merging it into the range it extends or joins.
func (t *tombSet) add(id uint64) {
	rs := t.cur
	i := 0
	if id > 0 {
		i = search(rs, id-1) // the first range that contains or touches id
	}
	// Differences, not id+1, so the top id cannot wrap.
	switch {
	case i == len(rs) || id < rs[i].lo && rs[i].lo-id > 1:
		rs = slices.Insert(rs, i, tombRange{id, id})
	case id < rs[i].lo: // id == lo-1
		rs[i].lo = id
	case id > rs[i].hi: // id == hi+1
		rs[i].hi = id
		if i+1 < len(rs) && rs[i+1].lo-id == 1 {
			rs[i].hi = rs[i+1].hi
			rs = slices.Delete(rs, i+1, i+2)
		}
	}
	t.cur = rs
}

// expire starts a new generation once cur is ttl old, forgetting the ids
// of the one before.
func (t *tombSet) expire(now time.Time) {
	if now.Sub(t.since) < t.ttl {
		return
	}
	t.old, t.cur = t.cur, t.old[:0]
	t.since = now
}

// search returns the index of the first range with hi ≥ id, len(rs) if none.
func search(rs []tombRange, id uint64) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].hi < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// covers reports whether a range of rs contains id.
func covers(rs []tombRange, id uint64) bool {
	i := search(rs, id)
	return i < len(rs) && rs[i].lo <= id
}
