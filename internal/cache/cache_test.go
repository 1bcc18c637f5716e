package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const (
	stShared int8 = 1
	stMod    int8 = 2
)

func TestArrayGeometry(t *testing.T) {
	a := NewArray(32<<10, 4, 64) // 32KB 4-way 64B = 128 sets
	if a.Sets() != 128 || a.Ways() != 4 {
		t.Fatalf("geometry %dx%d", a.Sets(), a.Ways())
	}
}

func TestArrayHitMiss(t *testing.T) {
	a := NewArray(1<<10, 2, 64) // 8 sets
	if a.Lookup(0x10, true) != nil {
		t.Fatal("lookup in empty array hit")
	}
	a.Insert(0x10, stShared)
	l := a.Lookup(0x10, true)
	if l == nil || l.Tag != 0x10 || l.State != stShared {
		t.Fatalf("lookup after insert = %+v", l)
	}
	if a.Hits() != 1 || a.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", a.Hits(), a.Misses())
	}
}

func TestArrayPeekNoSideEffects(t *testing.T) {
	a := NewArray(1<<10, 2, 64)
	a.Insert(0x10, stShared)
	h, m := a.Hits(), a.Misses()
	if a.Peek(0x10) == nil || a.Peek(0x11) != nil {
		t.Fatal("Peek wrong")
	}
	if a.Hits() != h || a.Misses() != m {
		t.Fatal("Peek changed statistics")
	}
}

func TestArrayEviction(t *testing.T) {
	a := NewArray(2*64, 2, 64) // 1 set, 2 ways
	a.Insert(0, stShared)
	a.Insert(1, stShared)
	_, _, ev := a.Insert(2, stMod)
	if !ev {
		t.Fatal("full set insert did not evict")
	}
	if a.ValidCount() != 2 {
		t.Fatalf("ValidCount = %d", a.ValidCount())
	}
	if a.Evictions() != 1 {
		t.Fatalf("Evictions = %d", a.Evictions())
	}
}

func TestArrayPLRUVictimIsLeastRecent(t *testing.T) {
	a := NewArray(4*64, 4, 64) // 1 set, 4 ways
	for i := uint64(0); i < 4; i++ {
		a.Insert(i, stShared)
	}
	// Touch 0,2,1,3: tree PLRU then points at way 0 (the true LRU here).
	a.Lookup(0, true)
	a.Lookup(2, true)
	a.Lookup(1, true)
	a.Lookup(3, true)
	_, victim, ev := a.Insert(10, stShared)
	if !ev {
		t.Fatal("no eviction")
	}
	if victim.Tag != 0 {
		t.Fatalf("victim = %#x, want 0 (tree PLRU points away from recent touches)", victim.Tag)
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := NewArray(1<<10, 2, 64)
	a.Insert(5, stMod)
	old, ok := a.Invalidate(5)
	if !ok || old.State != stMod {
		t.Fatalf("invalidate = %+v %v", old, ok)
	}
	if a.Peek(5) != nil {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := a.Invalidate(5); ok {
		t.Fatal("second invalidate succeeded")
	}
}

func TestArrayDoubleInsertPanics(t *testing.T) {
	a := NewArray(1<<10, 2, 64)
	a.Insert(1, stShared)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	a.Insert(1, stShared)
}

// TestSetOfFold pins the set index to the XOR fold of the line address at
// log2(sets)-bit strides, for every set count from 1 to 4096.
func TestSetOfFold(t *testing.T) {
	for sets := 1; sets <= 4096; sets *= 2 {
		a := NewArray(sets*2*64, 2, 64)
		bits := uint(0)
		for 1<<bits < sets {
			bits++
		}
		for _, la := range []uint64{0, 1, 0x3f, 0x1234_5678, 0xdead_beef_cafe, ^uint64(0)} {
			want := int((la ^ la>>bits ^ la>>(2*bits)) & uint64(sets-1))
			if got := a.SetOf(la); got != want {
				t.Fatalf("%d sets: SetOf(%#x) = %d, want %d", sets, la, got, want)
			}
		}
	}
}

func TestArrayDistinctSetsDoNotConflict(t *testing.T) {
	a := NewArray(4<<10, 2, 64) // 32 sets, 2 ways
	// Find three addresses in the same (hashed) set and one outside it.
	target := a.SetOf(0)
	var same []uint64
	var other uint64
	for la := uint64(0); la < 4096 && (len(same) < 3 || other == 0); la++ {
		if a.SetOf(la) == target {
			if len(same) < 3 {
				same = append(same, la)
			}
		} else if other == 0 {
			other = la
		}
	}
	a.Insert(same[0], stShared)
	a.Insert(same[1], stShared)
	a.Insert(other, stShared)
	_, _, ev := a.Insert(same[2], stShared) // evicts within the target set
	if !ev {
		t.Fatal("full set insert did not evict")
	}
	if a.Peek(other) == nil {
		t.Fatal("unrelated set affected")
	}
	if a.ValidCount() != 3 {
		t.Fatalf("ValidCount = %d, want 3", a.ValidCount())
	}
}

// Property: an array never holds more valid lines than its capacity and a
// just-inserted line is always found.
func TestArrayCapacityProperty(t *testing.T) {
	prop := func(addrs []uint16) bool {
		a := NewArray(1<<10, 4, 64) // 4 sets * 4 ways = 16 lines
		for _, ad := range addrs {
			la := uint64(ad % 256)
			if a.Peek(la) == nil {
				a.Insert(la, stShared)
			}
			if a.Peek(la) == nil {
				return false
			}
			if a.ValidCount() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property (PLRU inclusion-adjacent): after touching a line, inserting one
// new line into the same set never evicts the just-touched line (ways >= 2).
func TestPLRUProtectsMRUProperty(t *testing.T) {
	prop := func(seed []uint8) bool {
		a := NewArray(4*64, 4, 64) // 1 set
		for i := uint64(0); i < 4; i++ {
			a.Insert(i, stShared)
		}
		for _, s := range seed {
			keep := uint64(s % 4)
			a.Lookup(keep, true)
			_, victim, ev := a.Insert(100+keep, stShared)
			if !ev {
				return false
			}
			if victim.Tag == keep {
				return false // MRU line evicted
			}
			a.Invalidate(100 + keep) // restore
			_, ok := a.Invalidate(victim.Tag)
			_ = ok
			a.Insert(victim.Tag, stShared) // put victim back
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRBasics(t *testing.T) {
	m := NewMSHR(2)
	ran := 0
	if !m.Allocate(1, false, sim.AsCont(func() { ran++ })) {
		t.Fatal("allocate failed on empty file")
	}
	if !m.Pending(1) || m.Pending(2) {
		t.Fatal("Pending wrong")
	}
	m.AddWaiter(1, true, sim.AsCont(func() { ran++ }))
	if !m.WantsWrite(1) {
		t.Fatal("write upgrade lost")
	}
	m.Complete(1, func(c sim.Cont) { c.Fire() })
	if ran != 2 {
		t.Fatalf("waiters run = %d, want 2", ran)
	}
	if m.Pending(1) {
		t.Fatal("entry survived Complete")
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, false, nil)
	if !m.Full() {
		t.Fatal("Full() = false at capacity")
	}
	if m.Allocate(2, false, nil) {
		t.Fatal("allocate succeeded on full file")
	}
	if m.InFlight() != 1 {
		t.Fatalf("InFlight = %d", m.InFlight())
	}
}

func TestMSHRDoubleAllocatePanics(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(1, false, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocate did not panic")
		}
	}()
	m.Allocate(1, false, nil)
}

func TestMSHRWantsWriteFromAllocate(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(3, true, nil)
	if !m.WantsWrite(3) {
		t.Fatal("write intent from Allocate lost")
	}
	if m.WantsWrite(99) {
		t.Fatal("WantsWrite on absent line")
	}
}

// TestMSHRChurn drives the open-addressed table through interleaved
// allocate/complete cycles — including colliding keys and deletions in every
// relative order — and cross-checks against a map-based model. This is what
// exercises backward-shift deletion.
func TestMSHRChurn(t *testing.T) {
	const cap = 8
	m := NewMSHR(cap)
	model := map[uint64][]int{}
	fired := map[int]bool{}
	next := 0
	rng := uint64(0x12345)
	rand := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for step := 0; step < 5000; step++ {
		// Small key space forces probe-chain overlap.
		line := rand(32)
		switch {
		case m.Pending(line):
			if rand(2) == 0 {
				id := next
				next++
				m.AddWaiter(line, rand(2) == 0, contID(id, fired))
				model[line] = append(model[line], id)
			} else {
				want := model[line]
				delete(model, line)
				m.Complete(line, func(c sim.Cont) { c.Fire() })
				for _, id := range want {
					if !fired[id] {
						t.Fatalf("step %d: waiter %d for line %d not fired", step, id, line)
					}
				}
			}
		case !m.Full():
			id := next
			next++
			if !m.Allocate(line, rand(2) == 0, contID(id, fired)) {
				t.Fatalf("step %d: allocate failed below capacity", step)
			}
			model[line] = []int{id}
		default:
			// Full: complete an arbitrary pending line.
			for l := range model {
				want := model[l]
				delete(model, l)
				m.Complete(l, func(c sim.Cont) { c.Fire() })
				for _, id := range want {
					if !fired[id] {
						t.Fatalf("step %d: waiter %d for line %d not fired", step, id, l)
					}
				}
				break
			}
		}
		if m.InFlight() != len(model) {
			t.Fatalf("step %d: InFlight=%d model=%d", step, m.InFlight(), len(model))
		}
		for l := range model {
			if !m.Pending(l) {
				t.Fatalf("step %d: line %d lost from table", step, l)
			}
		}
	}
}

func contID(id int, fired map[int]bool) sim.Cont {
	return sim.AsCont(func() { fired[id] = true })
}

func TestPrefetcherDetectsStride(t *testing.T) {
	p := NewStridePrefetcher(16, 2, 4)
	pc := uint64(0x400)
	var got []uint64
	for i := uint64(0); i < 6; i++ {
		got = p.Observe(pc, 100+i) // stride 1
		if i < 2 && len(got) != 0 {
			t.Fatalf("prefetched before confidence at step %d: %v", i, got)
		}
	}
	// Steady state: issues at the consumption rate (one line per line
	// crossed), keeping the covered window bounded.
	if len(got) != 1 {
		t.Fatalf("steady state issued %d, want 1", len(got))
	}
	for _, la := range got {
		if la <= 105 {
			t.Fatalf("prefetch %d not ahead of demand 105", la)
		}
	}
}

func TestPrefetcherNoDuplicateCoverage(t *testing.T) {
	p := NewStridePrefetcher(16, 2, 2)
	pc := uint64(0x88)
	seen := map[uint64]int{}
	for i := uint64(0); i < 20; i++ {
		for _, la := range p.Observe(pc, 200+i) {
			seen[la]++
		}
	}
	for la, n := range seen {
		if n > 1 {
			t.Fatalf("line %d prefetched %d times", la, n)
		}
	}
	if p.Issued() == 0 {
		t.Fatal("no prefetches issued")
	}
}

func TestPrefetcherStrideChangeResets(t *testing.T) {
	p := NewStridePrefetcher(16, 2, 2)
	pc := uint64(0x42)
	p.Observe(pc, 10)
	p.Observe(pc, 11)
	p.Observe(pc, 12) // confident, stride 1
	if got := p.Observe(pc, 100); len(got) != 0 {
		t.Fatalf("prefetched immediately after stride change: %v", got)
	}
}

func TestPrefetcherNegativeStride(t *testing.T) {
	p := NewStridePrefetcher(16, 1, 1)
	pc := uint64(0x9)
	var got []uint64
	for i := 0; i < 5; i++ {
		got = p.Observe(pc, uint64(1000-i))
	}
	if len(got) != 1 || got[0] >= 996 {
		t.Fatalf("negative stride prefetch = %v, want < 996", got)
	}
}

func TestPrefetcherRandomStreamSilent(t *testing.T) {
	p := NewStridePrefetcher(16, 2, 2)
	pc := uint64(0x77)
	addrs := []uint64{5, 902, 13, 404, 77, 1009, 3, 555}
	total := 0
	for _, a := range addrs {
		total += len(p.Observe(pc, a))
	}
	if total != 0 {
		t.Fatalf("random stream triggered %d prefetches", total)
	}
}

func TestPrefetcherPCAliasing(t *testing.T) {
	p := NewStridePrefetcher(1, 2, 2) // single entry: all PCs alias
	p.Observe(1, 10)
	p.Observe(1, 11)
	// Different PC steals the entry.
	p.Observe(2, 500)
	if got := p.Observe(2, 501); len(got) != 0 {
		t.Fatalf("aliased entry kept stale confidence: %v", got)
	}
}

func TestPrefetcherZeroDegree(t *testing.T) {
	p := NewStridePrefetcher(4, 0, 2)
	for i := uint64(0); i < 10; i++ {
		if got := p.Observe(7, i); len(got) != 0 {
			t.Fatal("degree-0 prefetcher issued prefetches")
		}
	}
}
