// Incremental index maintenance: ApplyBatch repairs an index across one
// graph.Store commit instead of rebuilding it.
//
// Two observations make the repair proportional to the batch rather than
// to the touched neighborhoods:
//
//  1. cn locality. cn(u, v) = |Γ(u) ∩ Γ(v)| changes only when some w
//     enters or leaves the common neighborhood, which requires a mutation
//     on (u, w) or (v, w) with the third vertex adjacent to the opposite
//     endpoint. Better than re-enumerating and recomputing those
//     intersections, each mutation's effect is an exact ±1: inserting
//     (a, b) adds b to the common neighborhood of every surviving pair
//     (a, v) with v ∈ Γnew(a) ∩ Γnew(b); deleting (a, b) removes it for
//     v ∈ Γnew(a) ∩ Γold(b). Walking those merges per mutation and
//     adding the delta to both directed slots maintains every surviving
//     count without a single intersection; pairs the batch itself
//     inserts are the only ones computed from scratch. Two guards keep
//     the deltas exact: pairs that are themselves inserted are skipped
//     (their full recompute already sees every w), and when both (a, w)
//     and (v, w) are mutated the shared w is counted from the smaller
//     endpoint only. Everything else keeps its old count and is copied
//     (span-wise for untouched runs, remapped through the
//     surviving-neighbor alignment for touched runs).
//  2. order factorization. The neighbor order of u compares entries by
//     cn²/((d(u)+1)(d(v)+1)) with exact cross-multiplication, and the
//     (d(u)+1) factor is common to both sides of every within-run
//     comparison — the run's relative order depends only on each entry's
//     (cn(u, v), d(v)) pair. A run therefore needs repair only for
//     entries whose neighbor's degree changed, whose pair is dirty, or
//     which were inserted ("stale" entries); all other entries keep
//     their exact relative order even when d(u) itself changed.
//
// Repair caches each run's (cn, d(v)+1) keys once, so every comparison
// is arithmetic on scratch instead of scattered graph loads. It first
// verifies the copied run is still sorted at the boundaries adjacent to
// stale entries (small degree perturbations often do not reorder a run);
// only on a violation does it extract the stale handful, re-sort it, and
// merge it back by binary insertion under the exact comparator.
//
// Because the neighbor order is a strict total order (similarity ties
// break on vertex id), the sorted permutation is unique: the repaired
// arrays are bit-identical to what a from-scratch Build over the new
// snapshot would produce — the invariant the equivalence tests pin down.
package gsindex

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// applyWorker is one worker's grow-only repair scratch.
type applyWorker struct {
	// redo: inserted new-locals of the current touched run. omap: old→new
	// run-local alignment for touched runs.
	redo, omap []int32
	// dv1 caches d(v)+1 per run-local entry; stale flags entries whose
	// order key may have changed (0/1, for branchless bitmap builds);
	// psw is the wide-run positional stale bitmap.
	dv1   []uint64
	stale []uint8
	psw   []uint64
	// Comparator state, set per run before sorting/merging. deg1 is the
	// apply-wide d(v)+1 table, copied into dv1 per run before repair.
	deg1 []uint32
	cnr  []int32
	nbrs []int32
	// cnDirty is the apply-wide slot-dirty bitset (bit per directed edge
	// of the new snapshot): set on every slot whose count a delta or
	// insertion changed.
	cnDirty []uint64
	// recs: the count changes this worker's mutation walks recorded.
	recs []slotAdd
}

// slotAdd is one count change the pass-1 walks record: val is added to the
// count in slot, which lies in owner's run.
type slotAdd struct {
	owner, val int32
	slot       int64
}

// less orders the current run's entries a, b: higher similarity first,
// ties on smaller neighbor id — the same strict total order as runLess,
// with the run's keys read from scratch instead of the graph. When both
// cn values fit 20 bits and both d(v)+1 keys fit 21 bits (the common
// case by a wide margin), one 64-bit multiply per side is exact:
// cn² · d(v)+1 < 2⁴⁰ · 2²¹. Larger operands take the 3-limb path.
func (w *applyWorker) less(a, b int32) bool {
	dv1 := w.dv1
	ca, cb := uint64(uint32(w.cnr[a])), uint64(uint32(w.cnr[b]))
	da, db := dv1[a], dv1[b]
	if (ca|cb) < 1<<20 && (da|db) < 1<<21 {
		if l, r := ca*ca*db, cb*cb*da; l != r {
			return l > r
		}
	} else if cmp := simdef.CompareSimValues(w.cnr[a], da, w.cnr[b], db); cmp != 0 {
		return cmp > 0
	}
	return w.nbrs[a] < w.nbrs[b]
}

// applyScratch is the grow-only scratch ApplyBatch parks in the
// workspace: shared pair lists plus per-worker repair buffers.
type applyScratch struct {
	// degChanged is a bitset: bit u reports d_new(u) != d_old(u). A bitset
	// keeps the random per-neighbor probes of pass 2 L1-resident. Kept
	// cleared between applies (only d.Touched bits are ever set, and reset
	// after use).
	degChanged []uint64
	// addList/remList hold both directed orientations of the batch's
	// inserted/removed edges, packed u<<32|v and sorted — the per-vertex
	// mutation segments the delta walks consult. addOff/remOff are their
	// counting-sort segment starts (len n+1), so a vertex's segment is an
	// O(1) lookup instead of a binary search per walk.
	addList, remList []uint64
	addOff, remOff   []int32
	// cnDirty is a bitset over the new snapshot's directed edge slots:
	// bit s reports that slot s's count changed this apply. Repair reads
	// a run's dirty entries as one contiguous word extraction. Kept
	// cleared between applies via dirtySlots.
	cnDirty []uint64
	// recs holds every worker's count changes bucketed by owning vertex;
	// recOff (len n+1) are the bucket starts.
	recs   []slotAdd
	recOff []int32
	// dirtySlots records every slot whose cnDirty bit was set, so the
	// bitset is cleared in O(|dirty|) instead of O(|E|).
	dirtySlots []int64
	// touchedB: per-vertex bitset (adjacency changed), cleared wholesale
	// each apply — n/8 bytes.
	touchedB []uint64
	// deg1[v] = d_new(v)+1, filled once per apply so comparator key fills
	// are single table loads instead of two CSR offset loads each (uint32:
	// half the cache footprint, and d+1 always fits).
	deg1 []uint32
	w    []*applyWorker
}

// applyScratchKey identifies the repair scratch in Workspace.Scratch.
const applyScratchKey = "gsindex.apply"

// runLess reports whether run-relative neighbor position a of u orders
// before position b: higher similarity first, ties on smaller vertex id.
// The (d(u)+1) factor common to both sides of the cross-multiplication
// is dropped — the comparison is exact without it. Build's sortRun and
// the repair comparators share these semantics; bit-identity between
// Build and ApplyBatch rests on that.
func (ix *Index) runLess(uOff int64, a, b int32) bool {
	va, vb := ix.g.Dst[uOff+int64(a)], ix.g.Dst[uOff+int64(b)]
	pa := uint64(ix.g.Degree(va)) + 1
	pb := uint64(ix.g.Degree(vb)) + 1
	cmp := simdef.CompareSimValues(ix.cn[uOff+int64(a)], pa, ix.cn[uOff+int64(b)], pb)
	if cmp != 0 {
		return cmp > 0 // higher similarity first
	}
	return va < vb
}

// sortRun (re)initializes and sorts u's neighbor-order run.
//
//lint:snapfreeze pre-publication: receiver is always the still-private index under construction or repair
func (ix *Index) sortRun(u int32) {
	uOff := ix.g.Off[u]
	deg := int64(ix.g.Degree(u))
	ord := ix.order[uOff : uOff+deg]
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(a, b int) bool { return ix.runLess(uOff, ord[a], ord[b]) })
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+8)
	}
	return s[:n]
}

// bigRepair is insertRepair for runs wider than 64 neighbors: stale
// membership lives in w.stale (0/1 bytes) and the positional stale
// bitmap in w.psw words. The
// same two shortcuts apply — the bitmap is built branchlessly and only
// stale-adjacent boundaries are visited, with a displacement re-arming
// boundary k+1 (the arm carry handles a word crossing).
func (w *applyWorker) bigRepair(ord []int32) {
	cnr, nbrs, dv1, stale := w.cnr, w.nbrs, w.dv1, w.stale
	deg := len(ord)
	words := (deg + 63) >> 6
	w.psw = grow(w.psw, words)
	psw := w.psw
	clear(psw[:words])
	for k, x := range ord {
		psw[k>>6] |= uint64(stale[x]) << (uint(k) & 63)
	}
	var carry, arm uint64
	for wi := 0; wi < words; wi++ {
		pw := psw[wi]
		bm := (pw | pw<<1 | carry | arm) &^ boolBit(wi == 0)
		arm = 0
		if wi == words-1 && deg&63 != 0 {
			bm &= uint64(1)<<(uint(deg)&63) - 1
		}
		carry = pw >> 63
		base := wi << 6
		for bm != 0 {
			b := bits.TrailingZeros64(bm)
			bm &= bm - 1
			k := base + b
			x, p := ord[k], ord[k-1]
			cx, cp := uint64(uint32(cnr[x])), uint64(uint32(cnr[p]))
			dx, dp := dv1[x], dv1[p]
			var xLess bool
			if (cx|cp) < 1<<20 && (dx|dp) < 1<<21 {
				l, r := cx*cx*dp, cp*cp*dx
				xLess = l > r || (l == r && nbrs[x] < nbrs[p])
			} else {
				xLess = w.less(x, p)
			}
			if !xLess {
				continue
			}
			if k+1 < deg && stale[p] != 0 {
				if b == 63 {
					arm = 1
				} else {
					bm |= 1 << uint(b+1)
				}
			}
			j := k - 1
			for {
				ord[j+1] = ord[j]
				j--
				if j < 0 {
					break
				}
				y := ord[j]
				cy, dy := uint64(uint32(cnr[y])), dv1[y]
				var xl bool
				if (cx|cy) < 1<<20 && (dx|dy) < 1<<21 {
					l, r := cx*cx*dy, cy*cy*dx
					xl = l > r || (l == r && nbrs[x] < nbrs[y])
				} else {
					xl = w.less(x, y)
				}
				if !xl {
					break
				}
			}
			ord[j+1] = x
		}
	}
}

// boolBit returns 1 if b else 0, for branchless mask arithmetic.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// dirtyBits extracts deg (≤ 64) consecutive bits of the slot-dirty
// bitset starting at slot base, as a run-local mask. A run's slots are
// contiguous, so its dirty entries are one or two word reads.
func dirtyBits(cd []uint64, base int64, deg int) uint64 {
	b := uint64(base)
	word := cd[b>>6] >> (b & 63)
	if rem := 64 - b&63; uint64(deg) > rem {
		word |= cd[b>>6+1] << rem
	}
	return word & (uint64(1)<<uint(deg) - 1)
}

// repairRun fixes the order run of an untouched vertex u: its neighbor
// list is unchanged, but stale entries (neighbor degree changed or pair
// count changed) may have moved; a run without any returns after one
// scan. See the package comment
// for the fast path / extraction-merge split. Runs up to 64 wide keep
// stale membership in a register and fetch degree keys lazily — a run
// that passes the sortedness check only loads the degrees probed at
// stale-adjacent boundaries.
func (ix *Index) repairRun(u int32, degChanged []uint64, w *applyWorker) {
	g := ix.g
	uOff := g.Off[u]
	nbrs := g.Neighbors(u)
	deg := len(nbrs)
	if deg > 64 {
		ix.repairRunBig(u, degChanged, w)
		return
	}
	dirty := dirtyBits(w.cnDirty, uOff, deg)
	ord := ix.order[uOff : uOff+int64(deg)]
	// One pass over the run builds both stale views insertRepair needs:
	// entry-indexed (staleMask, for re-arm probes) and position-indexed
	// (ps, for boundary arming) — walking ord instead of nbrs makes the
	// position view free.
	var staleMask, ps uint64
	for k, e := range ord {
		v := nbrs[e]
		b := dirty>>uint(e)&1 | degChanged[v>>6]>>(uint(v)&63)&1
		staleMask |= b << uint(e)
		ps |= b << uint(k)
	}
	if ps == 0 {
		return
	}
	w.dv1 = grow(w.dv1, deg)
	w.cnr, w.nbrs = ix.cn[uOff:uOff+int64(deg)], nbrs
	w.insertRepair(ord, staleMask, ps)
}

// insertRepair restores sortedness of ord in place. Precondition: the
// subsequence of entries whose staleMask bit is clear ("fresh") is
// already sorted under w.less, and w.cnr/w.nbrs/w.dv1 describe the run
// (dv1 grown to the run width; keys fill lazily from w.deg1). This is
// insertion sort with two exactness-preserving shortcuts: a boundary
// between two fresh entries is skipped outright (fresh keys are
// unchanged and fresh entries never cross during the left-shifts
// below), and the common ordered-boundary case runs on the
// hand-inlined single-multiply comparison with all state in locals.
// Oversized operands and actual displacements fall back to w.less.
// Each violated boundary costs one entry's displacement — typically a
// slot or two.
func (w *applyWorker) insertRepair(ord []int32, staleMask, ps uint64) {
	cnr, nbrs, dv1, deg1 := w.cnr, w.nbrs, w.dv1, w.deg1
	// ps is the position-stale view of staleMask (bit k = staleness of
	// ord[k]), built by the caller in the same pass that detects
	// staleness. Only stale-adjacent boundaries are visited, via their
	// set bits. A displacement at boundary k moves the stale predecessor
	// into position k, so boundary k+1 is re-armed from its staleness
	// before the shift.
	lim := ^uint64(0)
	if len(ord) < 64 {
		lim = uint64(1)<<uint(len(ord)) - 1
	}
	bm := (ps | ps<<1) &^ 1 & lim
	// Fill only the keys the armed boundaries read (both sides of each):
	// unconditional stores with independent loads, so deg1 misses
	// overlap, without paying a full-run fill. Displacements and re-arms
	// fill the extra entries they reach inline below.
	for m := bm; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		x, p := ord[k], ord[k-1]
		dv1[x] = uint64(deg1[nbrs[x]])
		dv1[p] = uint64(deg1[nbrs[p]])
	}
	for bm != 0 {
		k := bits.TrailingZeros64(bm)
		bm &= bm - 1
		x, p := ord[k], ord[k-1]
		cx, cp := uint64(uint32(cnr[x])), uint64(uint32(cnr[p]))
		dx, dp := dv1[x], dv1[p]
		var xLess bool
		if (cx|cp) < 1<<20 && (dx|dp) < 1<<21 {
			l, r := cx*cx*dp, cp*cp*dx
			xLess = l > r || (l == r && nbrs[x] < nbrs[p])
		} else {
			xLess = w.less(x, p)
		}
		if !xLess {
			continue
		}
		if rb := (staleMask >> uint(p) & 1) << uint(k+1) & lim; rb != 0 {
			bm |= rb
			nx := ord[k+1]
			dv1[nx] = uint64(deg1[nbrs[nx]])
		}
		j := k - 1
		for {
			ord[j+1] = ord[j]
			j--
			if j < 0 {
				break
			}
			y := ord[j]
			dv1[y] = uint64(deg1[nbrs[y]])
			cy, dy := uint64(uint32(cnr[y])), dv1[y]
			var xl bool
			if (cx|cy) < 1<<20 && (dx|dy) < 1<<21 {
				l, r := cx*cx*dy, cy*cy*dx
				xl = l > r || (l == r && nbrs[x] < nbrs[y])
			} else {
				xl = w.less(x, y)
			}
			if !xl {
				break
			}
		}
		ord[j+1] = x
	}
}

// repairRunBig is repairRun for runs wider than 64 neighbors: stale
// membership lives in 0/1 bytes instead of a bitmask, and degree keys
// are filled eagerly (a wide run probes most of them anyway).
func (ix *Index) repairRunBig(u int32, degChanged []uint64, w *applyWorker) {
	g := ix.g
	uOff := g.Off[u]
	nbrs := g.Neighbors(u)
	deg := len(nbrs)
	ord := ix.order[uOff : uOff+int64(deg)]
	w.dv1 = grow(w.dv1, deg)
	w.stale = grow(w.stale, deg)
	dv1, stale := w.dv1, w.stale
	cd := w.cnDirty
	var any uint8
	for i, v := range nbrs {
		dv1[i] = uint64(w.deg1[v])
		slot := uint64(uOff) + uint64(i)
		s := uint8(degChanged[v>>6]>>(uint(v)&63)&1) | uint8(cd[slot>>6]>>(slot&63)&1)
		stale[i] = s
		any |= s
	}
	if any == 0 {
		return
	}
	w.cnr, w.nbrs = ix.cn[uOff:uOff+int64(deg)], nbrs
	w.bigRepair(ord)
}

// repairTouchedRun lays down the run of a touched vertex and rebuilds
// its order from the old run's order. The merge that aligns old and new
// neighbors also copies the surviving counts (inserted slots start from
// zero); recs, the run's recorded count changes, are added on top.
// Surviving neighbors with unchanged keys keep their exact relative
// order (the d(u) factor cancels in every within-run comparison). For
// runs up to 64 wide, the survivors are laid down in
// their old order, inserted neighbors are appended behind them as stale
// entries, and one insertRepair pass sorts the result. Wider runs take
// the extraction-merge path.
//
//lint:snapfreeze pre-publication: nix is the unpublished next-epoch index until ApplyBatch returns it
func (nix *Index) repairTouchedRun(u int32, old *Index, degChanged []uint64, recs []slotAdd, w *applyWorker) {
	oldG, newG := old.g, nix.g
	oldNbrs, newNbrs := oldG.Neighbors(u), newG.Neighbors(u)
	oo, no := oldG.Off[u], newG.Off[u]
	deg := len(newNbrs)
	if deg > 64 {
		nix.repairTouchedRunBig(u, old, degChanged, recs, w)
		return
	}
	// omap: old-local → new-local (-1 = removed); inserted new-locals
	// are collected as a bitmask.
	omap := w.omap[:0]
	var staleMask, insMask uint64
	i, j := 0, 0
	for i < len(oldNbrs) || j < deg {
		switch {
		case j == deg || (i < len(oldNbrs) && oldNbrs[i] < newNbrs[j]):
			omap = append(omap, -1) // removed
			i++
		case i == len(oldNbrs) || oldNbrs[i] > newNbrs[j]:
			insMask |= 1 << uint(j) // inserted
			j++
		default:
			omap = append(omap, int32(j))
			nix.cn[no+int64(j)] = old.cn[oo+int64(i)]
			i++
			j++
		}
	}
	w.omap = omap
	addCounts(nix.cn, recs)
	staleMask = dirtyBits(w.cnDirty, no, deg)
	for jj, v := range newNbrs {
		staleMask |= degChanged[v>>6] >> (uint(v) & 63) & 1 << uint(jj)
	}
	staleMask |= insMask
	// Lay survivors down in old order and append inserted entries behind
	// them, building the position-stale view as each slot is filled.
	ord := nix.order[no : no+int64(deg)]
	var ps uint64
	k := 0
	for _, oi := range old.order[oo : oo+int64(len(oldNbrs))] {
		if nj := omap[oi]; nj >= 0 {
			ord[k] = nj
			ps |= staleMask >> uint(nj) & 1 << uint(k)
			k++
		}
	}
	for m := insMask; m != 0; m &= m - 1 {
		ord[k] = int32(bits.TrailingZeros64(m))
		ps |= 1 << uint(k)
		k++
	}
	w.dv1 = grow(w.dv1, deg)
	w.cnr, w.nbrs = nix.cn[no:no+int64(deg)], newNbrs
	w.insertRepair(ord, staleMask, ps)
}

// repairTouchedRunBig is repairTouchedRun for runs wider than 64
// neighbors: the same survivors-then-inserted laydown, with stale
// membership in 0/1 bytes and eager key fill, finished by bigRepair.
//
//lint:snapfreeze pre-publication: nix is the unpublished next-epoch index until ApplyBatch returns it
func (nix *Index) repairTouchedRunBig(u int32, old *Index, degChanged []uint64, recs []slotAdd, w *applyWorker) {
	oldG, newG := old.g, nix.g
	oldNbrs, newNbrs := oldG.Neighbors(u), newG.Neighbors(u)
	oo, no := oldG.Off[u], newG.Off[u]
	deg := len(newNbrs)
	w.dv1 = grow(w.dv1, deg)
	w.stale = grow(w.stale, deg)
	dv1, stale := w.dv1, w.stale
	cd := w.cnDirty
	for j, v := range newNbrs {
		dv1[j] = uint64(w.deg1[v])
		slot := uint64(no) + uint64(j)
		stale[j] = uint8(degChanged[v>>6]>>(uint(v)&63)&1) | uint8(cd[slot>>6]>>(slot&63)&1)
	}
	redo, omap := w.redo[:0], w.omap[:0]
	i, j := 0, 0
	for i < len(oldNbrs) || j < deg {
		switch {
		case j == deg || (i < len(oldNbrs) && oldNbrs[i] < newNbrs[j]):
			omap = append(omap, -1) // removed
			i++
		case i == len(oldNbrs) || oldNbrs[i] > newNbrs[j]:
			redo = append(redo, int32(j)) // inserted
			j++
		default:
			omap = append(omap, int32(j))
			nix.cn[no+int64(j)] = old.cn[oo+int64(i)]
			i++
			j++
		}
	}
	w.redo, w.omap = redo, omap
	addCounts(nix.cn, recs)
	ord := nix.order[no : no+int64(deg)]
	k := 0
	for _, oi := range old.order[oo : oo+int64(len(oldNbrs))] {
		if nj := omap[oi]; nj >= 0 {
			ord[k] = nj
			k++
		}
	}
	for _, nj := range redo {
		stale[nj] = 1
		ord[k] = nj
		k++
	}
	w.cnr, w.nbrs = nix.cn[no:no+int64(deg)], newNbrs
	w.bigRepair(ord)
}

// layoutSegments lays out both orientations of edges as per-source
// segments, packed u<<32|v and ascending: off (len n+1) receives the
// segment starts and the returned list (list's storage, grown) the
// entries. It is a counting sort: edges follow the Delta contract (U < V,
// sorted), so scattering every (V, U) orientation before every (U, V)
// one leaves each segment ascending with no comparison sort. A list that
// is not sorted anyway (a breached contract) falls back to slices.Sort;
// the segment starts hold either way.
func layoutSegments(off []int32, list []uint64, edges []graph.Edge) []uint64 {
	clear(off)
	if len(edges) == 0 {
		return list[:0]
	}
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 1; u < len(off); u++ {
		off[u] += off[u-1]
	}
	list = grow(list, 2*len(edges))
	// off[u] is u's scatter cursor; afterwards it holds u's segment end,
	// which the shift turns back into segment starts.
	for _, e := range edges {
		list[off[e.V]] = uint64(uint32(e.V))<<32 | uint64(uint32(e.U))
		off[e.V]++
	}
	for _, e := range edges {
		list[off[e.U]] = uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
		off[e.U]++
	}
	copy(off[1:], off)
	off[0] = 0
	if !slices.IsSorted(list) {
		slices.Sort(list)
	}
	return list
}

// addCounts adds a run's recorded count changes onto its laid-down
// counts.
func addCounts(cn []int32, recs []slotAdd) {
	for _, r := range recs {
		cn[r.slot] += r.val
	}
}

// bucketByOwner gathers the workers' recorded count changes into list
// (its storage, grown), grouped by owning vertex in a counting sort: off
// (len n+1) receives each owner's bucket start.
func bucketByOwner(off []int32, list []slotAdd, workers []*applyWorker) []slotAdd {
	clear(off)
	total := 0
	for _, w := range workers {
		for _, r := range w.recs {
			off[r.owner+1]++
		}
		total += len(w.recs)
	}
	for u := 1; u < len(off); u++ {
		off[u] += off[u-1]
	}
	list = grow(list, total)
	// off[u] is u's scatter cursor; afterwards it holds u's bucket end,
	// which the shift turns back into bucket starts.
	for _, w := range workers {
		for _, r := range w.recs {
			list[off[r.owner]] = r
			off[r.owner]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	return list
}

// ApplyBatch derives the index for d.New from the index over d.Old,
// recomputing only what the commit can have changed. The receiver must be
// the index of d.Old (pointer identity); the receiver itself is not
// modified — like a Store commit, maintenance produces a new immutable
// Index so in-flight queries against the old snapshot stay consistent. A
// no-op delta returns the receiver unchanged.
//
// Scratch (bitmaps, pair lists, per-worker merge buffers) is drawn from
// ws; only the new index payload is allocated. A nil ws uses a throwaway
// workspace. ctx cancels between passes and between scheduler task
// batches, exactly like BuildContext; a cancelled apply returns
// (nil, ctx.Err()) with no partial index.
//
// Cost: O(n + |E|) sequential copying and scanning, plus
// O(Σ_{(a,b) ∈ batch} (d(a)+d(b))) for the delta walks, plus a
// near-sorted insertion pass per run holding stale entries — against
// Build's O(Σ_u d(u)·d̄ + Σ_u d(u) log d(u)). No intersection is
// recomputed: surviving counts move by ±1 deltas and an inserted pair's
// count is its walk's tally. That is the ≥10× win on small-churn
// batches the acceptance gate pins.
//
//lint:snapfreeze pre-publication: every write lands in nix, which no reader can see until this returns
func (ix *Index) ApplyBatch(ctx context.Context, d *graph.Delta, opt BuildOptions, ws *engine.Workspace) (*Index, error) {
	if d == nil || d.Old != ix.g {
		return nil, fmt.Errorf("gsindex: ApplyBatch delta does not extend this index's snapshot (epoch %d)", ix.g.Epoch())
	}
	if d.Empty() {
		return ix, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	start := time.Now()
	oldG, newG := d.Old, d.New
	n := newG.NumVertices()
	nix := &Index{
		g:     newG,
		cn:    make([]int32, newG.NumDirectedEdges()),
		order: make([]int32, newG.NumDirectedEdges()),
	}

	maxWorkers := opt.Workers
	if maxWorkers < 1 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	sc := ws.Scratch(applyScratchKey, func() any { return new(applyScratch) }).(*applyScratch)
	//lint:ctxok bounded by Workers
	for len(sc.w) < maxWorkers {
		sc.w = append(sc.w, new(applyWorker))
	}
	sc.deg1 = grow(sc.deg1, int(n))
	deg1 := sc.deg1
	//lint:ctxok plain O(n) degree-key fill before the pass-0 checkpoint; no similarity work
	for u := int32(0); u < n; u++ {
		deg1[u] = uint32(newG.Off[u+1]-newG.Off[u]) + 1
	}
	//lint:ctxok bounded by Workers
	for _, w := range sc.w {
		w.deg1 = deg1
	}
	sc.degChanged = grow(sc.degChanged, int(n>>6)+1)
	degChanged := sc.degChanged
	// degChanged is kept cleared between applies; reset our marks on every
	// exit path.
	defer func() {
		for _, u := range d.Touched {
			degChanged[u>>6] &^= 1 << (uint(u) & 63)
		}
	}()
	sc.cnDirty = grow(sc.cnDirty, int(newG.NumDirectedEdges()>>6)+1)
	cnDirty := sc.cnDirty
	//lint:ctxok bounded by Workers
	for _, w := range sc.w {
		w.cnDirty = cnDirty
	}
	// cnDirty is likewise kept cleared between applies: every set bit is
	// recorded in dirtySlots and undone on every exit path.
	dirtySlots := sc.dirtySlots[:0]
	defer func() {
		for _, s := range dirtySlots {
			cnDirty[s>>6] &^= 1 << (uint64(s) & 63)
		}
		sc.dirtySlots = dirtySlots[:0]
	}()

	// touched (adjacency changed) is a bitset: it clears in n/8 bytes per
	// apply, where a bool array would memclr 8× that.
	sc.touchedB = grow(sc.touchedB, int(n>>6)+1)
	touched := sc.touchedB
	clear(touched)
	//lint:ctxok plain O(|touched|) bitmap marking before the pass-0 checkpoint
	for _, u := range d.Touched {
		touched[u>>6] |= 1 << (uint(u) & 63)
		if oldG.Degree(u) != newG.Degree(u) {
			degChanged[u>>6] |= 1 << (uint(u) & 63)
		}
	}

	// Pass 0: lay out the batch's directed mutation segments — both
	// orientations of inserted and removed edges, sorted — which the
	// delta walks of pass 1 consult per vertex.
	sc.addOff = grow(sc.addOff, int(n)+1)
	sc.remOff = grow(sc.remOff, int(n)+1)
	sc.addList = layoutSegments(sc.addOff, sc.addList, d.Added)
	sc.remList = layoutSegments(sc.remOff, sc.remList, d.Removed)
	addList, remList := sc.addList, sc.remList
	addSeg := func(u int32) []uint64 { return addList[sc.addOff[u]:sc.addOff[u+1]] }
	remSeg := func(u int32) []uint64 { return remList[sc.remOff[u]:sc.remOff[u+1]] }
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 1: maintain the counts. Every changed count of a surviving
	// pair is an exact ±1 per mutation: inserting (a, b) walks
	// v ∈ Γnew(a) ∩ Γnew(b) (b joined those common neighborhoods),
	// deleting (a, b) walks v ∈ Γnew(a) ∩ Γold(b) (b left them), each
	// orientation of each mutation once. Pairs that are themselves
	// inserted are skipped — their count falls out of the same walk: the
	// merge contribAdd(a, b) traverses IS |Γnew(a) ∩ Γnew(b)|, so the
	// inserted pair's count is the walk's common-neighbor tally and no
	// intersection is ever recomputed. A w whose edges to both endpoints
	// were mutated is counted from the smaller endpoint only. Deltas land
	// on both directed slots, which are marked dirty.
	//
	// The walks run in parallel, one mutation at a time per worker, and
	// only read the graphs: each worker records its count changes per
	// slot, and pass 2 adds them onto the copied counts run by run (sums
	// commute, so the result is independent of the schedule).
	record := func(w *applyWorker, a, v int32, slotA int64, delta int32) {
		w.recs = append(w.recs,
			slotAdd{owner: a, val: delta, slot: slotA},
			slotAdd{owner: v, val: delta, slot: newG.EdgeOffset(v, a)})
	}
	// contribAdd walks Γnew(a) ∩ Γnew(b) once for both orientations of
	// the inserted edge (a, b): a common v at position i of a's run and j
	// of b's run is a delta for (a, v) and for (b, v), each side subject
	// to its own guards.
	contribAdd := func(w *applyWorker, a, b int32) int32 {
		an, bn := newG.Neighbors(a), newG.Neighbors(b)
		adA, adB := addSeg(a), addSeg(b)
		baseA, baseB := newG.Off[a], newG.Off[b]
		common := int32(0)
		i, j, pa, pb := 0, 0, 0, 0
		for i < len(an) && j < len(bn) {
			va, vb := an[i], bn[j]
			if va < vb {
				i++
				continue
			}
			if va > vb {
				j++
				continue
			}
			v, ia, jb := va, i, j
			i++
			j++
			common++
			for pa < len(adA) && int32(uint32(adA[pa])) < v {
				pa++
			}
			for pb < len(adB) && int32(uint32(adB[pb])) < v {
				pb++
			}
			insA := pa < len(adA) && int32(uint32(adA[pa])) == v
			insB := pb < len(adB) && int32(uint32(adB[pb])) == v
			// (a, v) itself inserted: recomputed in full. (v, b) also
			// inserted: the smaller endpoint's walk counts this w.
			if !insA && !(insB && a > v) {
				record(w, a, v, baseA+int64(ia), 1)
			}
			if !insB && !(insA && b > v) {
				record(w, b, v, baseB+int64(jb), 1)
			}
		}
		return common
	}
	contribDel := func(w *applyWorker, a, b int32) {
		an, bo := newG.Neighbors(a), oldG.Neighbors(b)
		adA, rmB := addSeg(a), remSeg(b)
		base := newG.Off[a]
		i, j, pa, pb := 0, 0, 0, 0
		for i < len(an) && j < len(bo) {
			va, vb := an[i], bo[j]
			if va < vb {
				i++
				continue
			}
			if va > vb {
				j++
				continue
			}
			v, idx := va, i
			i++
			j++
			for pa < len(adA) && int32(uint32(adA[pa])) < v {
				pa++
			}
			if pa < len(adA) && int32(uint32(adA[pa])) == v {
				continue // (a, v) itself inserted: recomputed in full
			}
			for pb < len(rmB) && int32(uint32(rmB[pb])) < v {
				pb++
			}
			if pb < len(rmB) && int32(uint32(rmB[pb])) == v && a > v {
				continue // (v, b) also removed: (v, b)'s walk counts this w
			}
			record(w, a, v, base+int64(idx), -1)
		}
	}
	// An inserted pair's slots are never a delta target (the walks skip
	// inserted pairs) and start from zero, so its whole count is recorded
	// as their one change.
	nAdd := len(d.Added)
	//lint:ctxok bounded by Workers
	for _, w := range sc.w {
		w.recs = w.recs[:0]
	}
	// The static scheduler splits the mutation indexes (added edges, then
	// removed ones) into one block per worker.
	err := sched.ForEachVertexStatic(opt.Workers, int32(nAdd+len(d.Removed)), func(m int32, worker int) {
		w := sc.w[worker]
		if int(m) < nAdd {
			e := d.Added[m]
			c := contribAdd(w, e.U, e.V) + 2
			w.recs = append(w.recs,
				slotAdd{owner: e.U, val: c, slot: newG.EdgeOffset(e.U, e.V)},
				slotAdd{owner: e.V, val: c, slot: newG.EdgeOffset(e.V, e.U)})
			return
		}
		e := d.Removed[int(m)-nAdd]
		contribDel(w, e.U, e.V)
		contribDel(w, e.V, e.U)
	})
	if err != nil {
		return nil, fmt.Errorf("gsindex: apply aborted during count pass after %v: %w", time.Since(start), err)
	}
	sc.recOff = grow(sc.recOff, int(n)+1)
	sc.recs = bucketByOwner(sc.recOff, sc.recs, sc.w)
	recs, recOff := sc.recs, sc.recOff
	//lint:ctxok plain O(|records|) dirty marking between the pass-1 walks and the pass-1 checkpoint
	for _, r := range recs {
		cnDirty[r.slot>>6] |= 1 << (uint64(r.slot) & 63)
		dirtySlots = append(dirtySlots, r.slot)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 2: lay down each run and repair its neighbor order. An
	// untouched vertex's run is identical in both snapshots (only at a
	// shifted offset) and is copied — order entries are run-relative, so
	// they survive the shift unchanged — then the run's recorded count
	// changes are added and its order repaired while it is cache-hot
	// (repairTouchedRun does the same for a touched run). A run needs
	// repair only if its membership changed (touched), a neighbor's
	// degree changed, or it owns a changed count (a dirty slot) —
	// entries outside those classes keep their exact relative order
	// because the d(u) factor cancels within a run; repairRun returns at
	// once when it finds none.
	schedOpt := sched.Options{Workers: opt.Workers, DegreeThreshold: opt.DegreeThreshold}
	err = sched.ForEachVertexCtx(ctx, schedOpt, n,
		func(int32) bool { return true },
		newG.Degree,
		func(u int32, worker int) {
			w := sc.w[worker]
			ur := recs[recOff[u]:recOff[u+1]]
			if touched[u>>6]>>(uint(u)&63)&1 != 0 {
				nix.repairTouchedRun(u, ix, degChanged, ur, w)
				return
			}
			oo, no := oldG.Off[u], newG.Off[u]
			deg := newG.Off[u+1] - no
			copy(nix.cn[no:no+deg], ix.cn[oo:oo+deg])
			copy(nix.order[no:no+deg], ix.order[oo:oo+deg])
			addCounts(nix.cn, ur)
			nix.repairRun(u, degChanged, w)
		})
	if err != nil {
		return nil, fmt.Errorf("gsindex: apply aborted during repair pass after %v: %w", time.Since(start), err)
	}
	nix.buildTime = time.Since(start)
	return nix, nil
}
