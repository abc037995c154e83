package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/combin"
	"repro/internal/geometry"
	"repro/internal/safearea"
	"repro/internal/sim"
)

// Engine is the Γ-point computation engine shared by every algorithm
// variant: it bounds how many workers fan the per-candidate-set safe-point
// solves of one Zi walk out across CPUs, and owns the memoization table
// that collapses identical solves to one. Both optimizations are exact —
// any worker count, on a cold engine or a warm one, produces the
// bit-identical result eq. (9) defines:
//
//   - Parallelism: the C(|B|, k) candidate sets are streamed by
//     lexicographic rank (workers claim short runs of ranks, unrank the
//     first with combin.Unrank and step with combin.Next, so the subset
//     list is never materialized), each Γ-point depends only on its own
//     candidate set, and the Zi average is reduced in rank order. The
//     walk's caller is worker 0 (sim.FanOut); the other workers−1 start
//     only when the caller first meets a memo miss. A memo hit costs a
//     few hash probes, less than starting and joining a goroutine: on
//     the witness-optimised approx workload, where ~99 % of sets are
//     hits, fanning out every walk ran slower than one worker.
//   - Memoization: by Observation 2 of the paper, the deterministic point
//     zij of a candidate set depends only on the canonical (origin-sorted)
//     multiset of values, so any two processes — and any two rounds, and any
//     two of the n simulated nodes of one execution — holding the same set
//     compute the same point. The cache key is exactly that canonical
//     multiset plus (d, f, method), with each value named by its interned
//     id (valueIDs): within one memo generation ids are a bijection on the
//     values' bit-exact geometry.AppendKey bytes, so equal keys mean equal
//     multisets, and every key carries its generation, so ids reissued
//     after a drop never hit an earlier generation's entries. A walk
//     interns each distinct value once. The round-level (zi) and
//     Radon-family (fams) tables still key on the values' bytes.
//
// The memo tables (memoTable) are hash tables whose hits take no lock:
// a lookup probes the current slot array through atomic loads, and only a
// miss takes the table's mutex to insert. Each array starts small and
// doubles with its content. The tables are effectively round-scoped: each
// round's states move, so old entries stop being hit, and a table is
// dropped wholesale when an insert finds it at its fixed bound, keeping
// memory O(1) over long executions.
//
// An Engine is safe for concurrent use by multiple goroutines.
type Engine struct {
	workers int

	memo *memoTable[memoResult] // per-candidate-set and prefix Γ-points
	zi   *memoTable[memoResult] // whole AverageGamma reductions

	// values is the current memo generation's interner; gens counts the
	// generations started (guarded by memo's lock, see nextGen), and
	// maxValues bounds an interner.
	values    atomic.Pointer[valueIDs]
	gens      uint64
	maxValues int

	// Radon-family cache (restricted-async f = 1 regime): per-B-set subset
	// walks keyed by the canonical member-value sequence, with a drop-one
	// sub-key index so a new B set can be built as a single-member delta of
	// a sibling's family (safearea.RadonFamily), reusing the untouched
	// subsets' points outright. famSub is cleared whenever fams drops.
	fams   *memoTable[memoResult]
	famMu  sync.Mutex
	famSub map[string]famRef

	keyBufs  sync.Pool      // SafePoint's *keyBuf scratch
	counters engineCounters // Γ-reuse counters, snapshot by Counters
}

// keyBuf is SafePoint's reusable memo key and value-key buffers.
type keyBuf struct{ key, vkey []byte }

// famRef locates a finished family that contains a given drop-one
// sub-pool: the family plus the dropped slot.
type famRef struct {
	fam  *safearea.RadonFamily
	slot int
}

// maxMemoEntries bounds the Γ-point table; an insert into a full table
// drops the whole table first (cheap, deterministic, and correct — entries
// are pure functions of their key). maxZiEntries and maxFamEntries bound
// the round-level and Radon-family tables the same way.
const (
	maxMemoEntries = 1 << 15
	maxZiEntries   = 1 << 12
	maxFamEntries  = 1 << 8
)

// NewEngine returns an engine with the given worker bound (≤ 0 means
// GOMAXPROCS).
func NewEngine(workers int) *Engine {
	return newEngine(workers, maxMemoEntries, maxInternValues)
}

// newEngine is NewEngine with the Γ-point table's and the interner's
// bounds supplied (tests shrink them to force drops mid-walk).
func newEngine(workers int, maxMemo, maxValues int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, maxValues: maxValues}
	e.keyBufs.New = func() any { return new(keyBuf) }
	e.memo = newMemoTable[memoResult](maxMemo, e.nextGen)
	e.nextGen()
	e.zi = newMemoTable[memoResult](maxZiEntries, nil)
	e.famSub = make(map[string]famRef)
	e.fams = newMemoTable[memoResult](maxFamEntries, func() {
		e.famMu.Lock()
		e.famSub = make(map[string]famRef)
		e.famMu.Unlock()
	})
	return e
}

// defaultEngine backs every node whose Params carry no explicit Engine:
// parallel across GOMAXPROCS and memoized, so the n simulated processes of
// one execution share work by default.
var defaultEngine = NewEngine(0)

// DefaultEngine returns the process-wide shared engine.
func DefaultEngine() *Engine { return defaultEngine }

// Reset drops every memoized Γ-point and round reduction.
func (e *Engine) Reset() {
	e.memo.reset()
	e.zi.reset()
	e.fams.reset()
}

// appendMeta appends the non-value parameters the Γ-point depends on: the
// method byte, then d and f as uvarints (one byte each below 128; uvarints
// are prefix-free, so the meta decodes to exactly one triple).
func appendMeta(dst []byte, d, f int, method safearea.Method) []byte {
	dst = append(dst, byte(method))
	dst = binary.AppendUvarint(dst, uint64(d))
	return binary.AppendUvarint(dst, uint64(f))
}

// SafePoint returns the deterministic Γ-point of (y, f) under method,
// memoized on the canonical multiset key — the key space of the walks'
// full candidate sets. In Exact BVC all n processes hold the identical
// agreed multiset S, so the n-fold recomputation of the same lex-min LP
// collapses to a single solve. The key is built in pooled buffers, so a
// hit allocates only the returned copy.
func (e *Engine) SafePoint(y *geometry.Multiset, f int, method safearea.Method) (geometry.Vector, error) {
	buf := e.keyBufs.Get().(*keyBuf)
	values := e.values.Load()
	buf.key = appendKeyHead(buf.key[:0], y.Dim(), f, method, setKeyTag, values.gen)
	for i := 0; i < y.Len(); i++ {
		buf.vkey = geometry.AppendKey(buf.vkey[:0], y.At(i))
		buf.key = binary.AppendUvarint(buf.key, values.id(buf.vkey))
	}
	pt, _, fresh, err := solveOnce(e.memo, buf.key, y.Dim(), func() (geometry.Vector, uint32, error) {
		pt, err := safearea.PointWith(y, f, method)
		return pt, 0, err
	})
	e.keyBufs.Put(buf)
	var t gammaTally
	t.record(fresh, err, &t.cacheHits)
	t.flush(e)
	if err != nil {
		return nil, err
	}
	return pt.Clone(), nil
}

// gammaTally is one worker's share of the Γ-reuse counters, kept in plain
// fields and added to its engine's atomics once, by flush, when the worker
// finishes.
type gammaTally struct {
	solves, cacheHits, prefixHits uint64
}

// record applies the one counting rule for a memo lookup: a fresh
// computation is a solve, error or not; a recalled result is a hit (added
// to *hits) only when it carries no error.
func (t *gammaTally) record(fresh bool, err error, hits *uint64) {
	switch {
	case fresh:
		t.solves++
	case err == nil:
		*hits++
	}
}

func (t *gammaTally) flush(e *Engine) {
	e.counters.solves.Add(t.solves)
	e.counters.cacheHits.Add(t.cacheHits)
	e.counters.prefixHits.Add(t.prefixHits)
}

// gammaScratch is one worker's reusable state for per-candidate-set
// Γ-points: the gathered and origin-sorted tuple selection, the value view
// handed to the safe-area ladder (a Multiset re-pointed per solve, not
// allocated), the memo key buffer, the generation its keys are built in
// with the values the walk has interned there, and the worker's counter
// tally (flushed when the worker finishes).
type gammaScratch struct {
	e       *Engine
	f       int
	method  safearea.Method
	d       int
	sel     []tuple
	vals    []geometry.Vector
	view    geometry.Multiset
	key     []byte
	values  *valueIDs
	seen    []seenValue
	vkey    []byte
	members []memberID
	// fan is the walk's fan-out, for worker 0 to grow at its first solve;
	// nil on helpers and once grown.
	fan *sim.Fan
	gammaTally
}

// scratch builds worker w's scratch for a walk on fan over candidate sets
// of at most k members whose origins are below origins.
func (e *Engine) scratch(fan *sim.Fan, w, k, origins, d, f int, method safearea.Method) gammaScratch {
	// One buffer for the key and the value bytes being interned; the key's
	// capacity is capped, so growing it never overwrites them.
	keyCap := 20 + 3*k
	buf := make([]byte, keyCap+8*d)
	sc := gammaScratch{
		e: e, f: f, method: method, d: d,
		sel:     make([]tuple, 0, k),
		vals:    make([]geometry.Vector, 0, k),
		key:     buf[:0:keyCap],
		vkey:    buf[keyCap:keyCap],
		values:  e.values.Load(),
		seen:    make([]seenValue, min(max(origins, 0), maxSeenOrigins)),
		members: make([]memberID, 0, k),
	}
	if w == 0 {
		sc.fan = fan
	}
	return sc
}

// solving runs before every Γ-point solve. Worker 0's first one starts the
// walk's helpers: a memo hit costs a few hash probes, less than starting
// and joining a goroutine, so a walk whose every set is a hit never leaves
// its caller's goroutine.
func (sc *gammaScratch) solving() {
	if sc.fan != nil {
		sc.fan.Grow()
		sc.fan = nil
	}
}

// point computes (or recalls) the Γ-point of the candidate set selected from
// tuples by idx. The returned vector is shared with the memo table and must
// not be mutated.
func (sc *gammaScratch) point(tuples []tuple, idx []int) (geometry.Vector, error) {
	sc.startSet()
	for _, j := range idx {
		sc.addMember(tuples, j)
	}
	return sc.pointOfMembers(tuples)
}

// pointOfSet is point for an explicitly materialized candidate set (the
// witness-optimization path).
func (sc *gammaScratch) pointOfSet(set []tuple) (geometry.Vector, error) {
	sc.startSet()
	for i := range set {
		sc.addMember(set, i)
	}
	return sc.pointOfMembers(set)
}

// solve is the cache-miss compute path: the ladder on the origin-sorted
// selection, read through the scratch's value view.
func (sc *gammaScratch) solve(sel []tuple) (geometry.Vector, error) {
	ms, err := sc.viewOf(sel)
	if err != nil {
		return nil, err
	}
	return safearea.PointWith(ms, sc.f, sc.method)
}

// viewOf re-points the scratch's value view at the selection's values,
// without cloning them: delivered tuple values are immutable and the
// safe-area ladder only reads its input.
func (sc *gammaScratch) viewOf(sel []tuple) (*geometry.Multiset, error) {
	if len(sel) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	sc.vals = sc.vals[:0]
	for _, tp := range sel {
		sc.vals = append(sc.vals, tp.value)
	}
	if err := sc.view.View(sc.vals); err != nil {
		return nil, err
	}
	return &sc.view, nil
}

// pointOfMembers computes (or recalls) the Γ-point of the candidate set
// whose members startSet and addMember collected from src.
func (sc *gammaScratch) pointOfMembers(src []tuple) (geometry.Vector, error) {
	// Canonicalize by origin id (Observation 2); insertion sort — the
	// sets are small and usually already sorted, and it is stable, so the
	// members land where sorting the tuples themselves would put them.
	ms := sc.members
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].origin < ms[j-1].origin; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	// Sub-family (delta-key) lookup first: under the resolved method the
	// Γ-point depends only on the first m canonical members, so any two
	// candidate sets sharing that prefix — consecutive subsets of one walk,
	// sets of sibling processes, sets across rounds whose moved point sits
	// beyond the prefix — share one certified solve. The prefix key is the
	// full key cut after m members and retagged (the table copies what it
	// keeps). A prefix entry's count is 1 when the prefix computation
	// certified its point for every superset sharing the prefix.
	m := safearea.PrefixLen(len(ms), sc.d, sc.f, sc.method)
	key, prefixEnd := sc.setKey(m)
	if m < len(ms) {
		key[keyTagAt] = prefixKeyTag
		pt, ok, fresh, err := solveOnce(sc.e.memo, key[:prefixEnd], sc.d, func() (geometry.Vector, uint32, error) {
			sc.solving()
			ms, err := sc.viewOf(sc.gather(src)[:m])
			if err != nil {
				return nil, 0, err
			}
			pt, ok, err := safearea.PointOnPrefix(ms, sc.f, sc.method)
			if !ok {
				return nil, 0, err
			}
			return pt, 1, err
		})
		key[keyTagAt] = setKeyTag
		if ok == 1 || err != nil {
			sc.record(fresh, err, &sc.prefixHits)
			return pt, err
		}
		// Uncertified prefix: the superset's own ladder (including its
		// fallbacks) decides, keyed by the full multiset below, exactly as
		// the from-scratch ladder would fall back.
	}
	pt, _, fresh, err := solveOnce(sc.e.memo, key, sc.d, func() (geometry.Vector, uint32, error) {
		sc.solving()
		pt, err := sc.solve(sc.gather(src))
		return pt, 0, err
	})
	sc.record(fresh, err, &sc.cacheHits)
	return pt, err
}

// gather returns the set's tuples in canonical order, for a solve. A memo
// hit never gathers: it needs only the members' ids.
func (sc *gammaScratch) gather(src []tuple) []tuple {
	sel := sc.sel[:0]
	for _, mb := range sc.members {
		sel = append(sel, src[mb.at])
	}
	sc.sel = sel
	return sel
}

// ziKeyTag separates round-level AverageGamma memo keys from per-set keys.
const ziKeyTag = byte('Z')

// AverageGamma computes Zi = {Γ-point of C : C ⊆ tuples, |C| = k} and
// returns its average — eq. (9) of the paper — along with |Zi|. Subsets are
// streamed (never materialized); from the first solve on, the engine's
// workers run concurrently and are reduced in lexicographic rank order, so
// the result is bit-identical to the serial computation.
//
// The whole reduction is additionally keyed by the ordered (origin, value) tuple sequence: in the synchronous state exchange
// every correct process holds the identical inbox, so the n−f per-process
// reductions of one round collapse to a single subset walk.
func (e *Engine) AverageGamma(tuples []tuple, k, f int, method safearea.Method) (geometry.Vector, int, error) {
	n := len(tuples)
	if k <= 0 || k > n {
		return nil, 0, fmt.Errorf("core: subset size %d of %d tuples", k, n)
	}
	d := tuples[0].value.Dim()
	// Canonicalize the reduction: sort the B set by origin id, so the
	// whole computation — the subset enumeration order, the mean's
	// floating-point operation order, and the round-level memo key — is a
	// function of the SET rather than the arrival order. Synchronous
	// inboxes arrive pre-sorted (checked first, keeping that hot path
	// copy-free); restricted-async B sets arrive in delivery order, and
	// without canonicalization two processes holding the identical set
	// would key (and reduce) it differently.
	presorted := true
	for i := 1; i < n; i++ {
		if tuples[i].origin < tuples[i-1].origin {
			presorted = false
			break
		}
	}
	if !presorted {
		sorted := make([]tuple, n)
		copy(sorted, tuples)
		for i := 1; i < n; i++ {
			for j := i; j > 0 && sorted[j].origin < sorted[j-1].origin; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		tuples = sorted
	}
	key := make([]byte, 0, 10+4+(4+8*d)*n)
	key = appendMeta(key, d, f, method)
	key = append(key, ziKeyTag)
	key = binary.BigEndian.AppendUint32(key, uint32(k))
	for _, tp := range tuples {
		key = binary.BigEndian.AppendUint32(key, uint32(tp.origin))
		key = geometry.AppendKey(key, tp.value)
	}
	pt, size, fresh, err := solveOnce(e.zi, key, d, func() (geometry.Vector, uint32, error) {
		pt, size, err := e.averageGammaCompute(tuples, k, f, method, d)
		return pt, uint32(size), err
	})
	if err != nil {
		return nil, 0, err
	}
	if !fresh {
		e.counters.roundHits.Add(1)
	}
	return pt.Clone(), int(size), nil
}

// walkRun is how many consecutive subset ranks an AverageGamma worker
// claims at once: it unranks the first and steps to the rest with
// combin.Next, so Unrank's O(n) binomial walk is paid once per run instead
// of once per subset, while runs stay short enough to balance a few
// hundred subsets across workers.
const walkRun = 8

// averageGammaCompute is the reduction behind AverageGamma's round memo.
// tuples are origin-sorted (canonical). Every point lands at its rank, so
// the mean is the serial walk's whatever the workers' interleaving.
func (e *Engine) averageGammaCompute(tuples []tuple, k, f int, method safearea.Method, d int) (geometry.Vector, int, error) {
	if k == d+2 && len(tuples) > k &&
		safearea.Resolve(k, d, f, method) == safearea.MethodRadon {
		// Radon regime (restricted-async f = 1 at the shared-subset
		// bound): candidate sets are exactly prefix-sized, so neither the
		// sub-family nor the per-set memo can share work across B-set
		// deltas — the per-B-set incremental family walk does.
		return e.radonFamilyMean(tuples, k, f, method, d)
	}
	n := len(tuples)
	points := make([]geometry.Vector, combin.Binomial(n, k))
	return e.walk(points, func(fan *sim.Fan, w int) {
		sc := e.scratch(fan, w, k, tuples[n-1].origin+1, d, f, method)
		defer sc.flush(e)
		idx := make([]int, k)
		for {
			// Claim a run of ranks: one Unrank, then combin.Next.
			r0, r1, ok := fan.Claim(walkRun)
			if !ok {
				return
			}
			idx, err := combin.Unrank(n, k, int64(r0), idx)
			if err != nil {
				fan.Stop(err)
				return
			}
			for r := r0; r < r1; r++ {
				if r > r0 {
					combin.Next(n, idx)
				}
				pt, err := sc.point(tuples, idx)
				if err != nil {
					fan.Stop(fmt.Errorf("core: safe point of candidate set: %w", err))
					return
				}
				points[r] = pt
			}
		}
	})
}

// walk fills points, one per candidate set in rank order, by running work
// on a fan-out over the engine's workers, and averages them. The caller is
// worker 0; its scratch starts the helpers at its first solve (see
// gammaScratch.solving). A failure re-runs the walk on the caller alone,
// so the error is the first failing rank's whatever the interleaving.
func (e *Engine) walk(points []geometry.Vector, work func(fan *sim.Fan, w int)) (geometry.Vector, int, error) {
	err := sim.FanOut(e.workers, len(points), work)
	if err != nil && sim.ResolveWorkers(e.workers, len(points)) > 1 {
		err = sim.FanOut(1, len(points), work)
	}
	if err != nil {
		return nil, 0, err
	}
	return meanOf(points)
}

// famKeyTag separates Radon-family keys from the other memo key spaces.
const famKeyTag = byte('B')

// famKey builds the family cache key of the canonical pool, optionally
// skipping one slot (skip < 0 keys the full pool; otherwise the drop-one
// sub-key used for delta probing).
func famKey(dst []byte, tuples []tuple, d, f int, method safearea.Method, skip int) []byte {
	dst = appendMeta(dst, d, f, method)
	dst = append(dst, famKeyTag)
	for i, tp := range tuples {
		if i == skip {
			continue
		}
		dst = geometry.AppendKey(dst, tp.value)
	}
	return dst
}

// radonFamilyMean reduces one canonical B set through the Radon-family
// cache: an identical pool reuses the finished family outright; a pool
// differing from a cached sibling in one member is built as a delta
// (reused subset points count as prefix hits); only a pool with no cached
// relative is solved from scratch. Results are bit-identical to the plain
// subset walk — the family stores the identical points in the identical
// order.
func (e *Engine) radonFamilyMean(tuples []tuple, k, f int, method safearea.Method, d int) (geometry.Vector, int, error) {
	pt, size, _, err := solveOnce(e.fams, famKey(make([]byte, 0, 10+8*len(tuples)*d), tuples, d, f, method, -1), d, func() (geometry.Vector, uint32, error) {
		vals := make([]geometry.Vector, len(tuples))
		for i, tp := range tuples {
			vals[i] = tp.value
		}
		// Delta probe: find a finished sibling family missing exactly one
		// of our members (and holding one we lack). Sub-keys are only
		// registered after a family finishes building, and families are
		// immutable, so a hit is safe to read without any lock.
		var (
			prev *safearea.RadonFamily
			iNew = -1
			jOld = -1
		)
		sub := make([]byte, 0, 10+8*len(tuples)*d)
		e.famMu.Lock()
		for i := range tuples {
			sub = famKey(sub[:0], tuples, d, f, method, i)
			if ref, ok := e.famSub[string(sub)]; ok {
				prev, iNew, jOld = ref.fam, i, ref.slot
				break
			}
		}
		e.famMu.Unlock()
		var (
			fam            *safearea.RadonFamily
			reused, solved int
			err            error
		)
		if prev != nil {
			fam, reused, solved, err = safearea.NewRadonFamilyFrom(prev, vals, iNew, jOld, f, k, method)
		} else {
			fam, solved, err = safearea.NewRadonFamily(vals, f, k, method)
		}
		e.counters.solves.Add(uint64(solved))
		e.counters.prefixHits.Add(uint64(reused))
		if err != nil {
			return nil, 0, err
		}
		pt, size, err := fam.MeanPoint()
		if err != nil {
			return nil, 0, err
		}
		// Register the drop-one sub-keys of the finished family. Last
		// registration wins; any finished family with the same sub-pool
		// yields identical reused points.
		e.famMu.Lock()
		for i := range tuples {
			sub = famKey(sub[:0], tuples, d, f, method, i)
			e.famSub[string(sub)] = famRef{fam: fam, slot: i}
		}
		e.famMu.Unlock()
		return pt, uint32(size), nil
	})
	if err != nil {
		return nil, 0, err
	}
	return pt.Clone(), int(size), nil
}

// AverageGammaSets is AverageGamma over explicitly materialized candidate
// sets — the Appendix-F witness-optimization path, where the sets are the
// witnesses' reported prefixes rather than all k-subsets.
func (e *Engine) AverageGammaSets(sets [][]tuple, f int, method safearea.Method) (geometry.Vector, int, error) {
	if len(sets) == 0 {
		return nil, 0, fmt.Errorf("core: no candidate sets")
	}
	if len(sets[0]) == 0 {
		return nil, 0, fmt.Errorf("core: empty candidate set")
	}
	d := sets[0][0].value.Dim()
	maxK, origins := 0, 0
	for _, set := range sets {
		maxK = max(maxK, len(set))
		for _, tp := range set {
			origins = max(origins, tp.origin+1)
		}
	}
	points := make([]geometry.Vector, len(sets))
	return e.walk(points, func(fan *sim.Fan, w int) {
		sc := e.scratch(fan, w, maxK, origins, d, f, method)
		defer sc.flush(e)
		for {
			r, _, ok := fan.Claim(1)
			if !ok {
				return
			}
			pt, err := sc.pointOfSet(sets[r])
			if err != nil {
				fan.Stop(fmt.Errorf("core: safe point of candidate set: %w", err))
				return
			}
			points[r] = pt
		}
	})
}

// meanOf averages the rank-ordered points through geometry.Mean — the one
// canonical averaging implementation, so serial, parallel and reference
// computations share the identical floating-point operation order.
func meanOf(points []geometry.Vector) (geometry.Vector, int, error) {
	avg, err := geometry.Mean(points)
	if err != nil {
		return nil, 0, err
	}
	return avg, len(points), nil
}
