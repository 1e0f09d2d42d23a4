package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// The model test's key space: modelKeys keys spread evenly round the
// circle, so arcs wrap, a store can hold four blocks, and random draws
// collide.
const (
	modelKeys  = 4 * PageMaxItems
	modelDepth = 6
)

func modelKey(i int) keyspace.Key {
	return keyspace.Key(uint64(i%modelKeys)*(^uint64(0)/modelKeys) + 12345)
}

// opReader decodes a byte string into operation arguments; past its end
// it reads zeros, so every input is a valid program. An operation is an
// opcode byte and opArgs argument bytes.
type opReader struct{ data []byte }

const opArgs = 5

// next splits off one operation: its opcode and a reader of its arguments.
func (r *opReader) next() (int, *opReader) {
	op := r.byte()
	n := min(opArgs, len(r.data))
	args := &opReader{data: r.data[:n]}
	r.data = r.data[n:]
	return op, args
}

func (r *opReader) byte() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *opReader) key() int { return r.byte()<<8 | r.byte() }

// arc reads a clockwise range of up to a quarter of the model key space.
func (r *opReader) arc() keyspace.Range {
	start := r.key()
	return keyspace.Range{Start: modelKey(start), End: modelKey(start + 1 + r.byte()*2)}
}

// storeModel is the reference a Store is checked against: plain maps.
type storeModel struct {
	items map[keyspace.Key][]byte
	tombs map[keyspace.Key]int64
}

func (m *storeModel) put(k keyspace.Key, v []byte) bool {
	_, had := m.items[k]
	m.items[k] = v
	delete(m.tombs, k)
	return had
}

func (m *storeModel) tombstone(k keyspace.Key, at int64) bool {
	_, had := m.items[k]
	delete(m.items, k)
	if old, ok := m.tombs[k]; !ok || at > old {
		m.tombs[k] = at
	}
	return had
}

// clockwise returns the model's items in rg, clockwise from rg.Start.
func (m *storeModel) clockwise(rg keyspace.Range) []Item {
	var out []Item
	for k, v := range m.items {
		if rg.Contains(k) {
			out = append(out, Item{Key: k, Value: v})
		}
	}
	slices.SortFunc(out, func(a, b Item) int { return cmp.Compare(rg.Start.Distance(a.Key), rg.Start.Distance(b.Key)) })
	return out
}

// page cuts one bounded page from a clockwise item list, by the page rules
// ScanPage documents.
func page(all []Item, maxItems, maxBytes int) ([]Item, bool) {
	bytes := 0
	for n, it := range all {
		if maxItems > 0 && n >= maxItems || maxBytes > 0 && n > 0 && bytes+len(it.Value) > maxBytes {
			return all[:n], true
		}
		bytes += len(it.Value)
	}
	return all, false
}

// modelRun is one program: a digest-enabled store with a sink feeding a
// replay store, a fixed fallback store for merged pages, and the model.
type modelRun struct {
	t         testing.TB
	s, replay Store
	fallback  Store
	fbModel   storeModel
	m         storeModel
	step      int
	maxBlocks int
}

func newModelRun(t testing.TB) *modelRun {
	r := &modelRun{
		t:       t,
		m:       storeModel{items: map[keyspace.Key][]byte{}, tombs: map[keyspace.Key]int64{}},
		fbModel: storeModel{items: map[keyspace.Key][]byte{}, tombs: map[keyspace.Key]int64{}},
	}
	r.s.EnableDigest(modelDepth)
	r.s.SetSink(r.replay.ApplyMutation)
	// The fallback holds every third key; the primary's copies and
	// tombstones must win over it.
	for i := 0; i < modelKeys; i += 3 {
		v := []byte(fmt.Sprintf("fb%d", i))
		r.fallback.Put(modelKey(i), v)
		r.fbModel.put(modelKey(i), v)
	}
	return r
}

// value returns a distinct value of a drawn length, so byte caps bite and
// a stale copy shows.
func (r *modelRun) value(size int) []byte {
	return append([]byte(fmt.Sprintf("v%d.", r.step)), make([]byte, size%48)...)
}

// exec decodes and runs one operation on both the store and the model.
func (r *modelRun) exec(op int, in *opReader) {
	r.step++
	s, m := &r.s, &r.m
	switch op %= 8; op {
	case 0: // Put
		k := modelKey(in.key())
		v := r.value(in.byte())
		if got, want := s.Put(k, v), m.put(k, v); got != want {
			r.t.Fatalf("step %d: Put(%v) replaced=%v, model %v", r.step, k, got, want)
		}
	case 1, 2: // DeleteAt, SetTombstone
		k, at := modelKey(in.key()), int64(in.byte())
		var got bool
		if op == 1 {
			got = s.DeleteAt(k, at)
		} else {
			got = s.SetTombstone(k, at)
		}
		if want := m.tombstone(k, at); got != want {
			r.t.Fatalf("step %d: delete(%v) existed=%v, model %v", r.step, k, got, want)
		}
	case 3: // Drop
		k := modelKey(in.key())
		s.Drop(k)
		delete(m.items, k)
		delete(m.tombs, k)
	case 4: // InsertBulk: a run of keys at a drawn stride
		start, n, stride := in.key(), in.byte()*4, 1+in.byte()%3
		var items []Item
		seen := map[keyspace.Key]bool{}
		for j := 0; j < n; j++ {
			k := modelKey(start + j*stride)
			if seen[k] {
				break
			}
			seen[k] = true
			items = append(items, Item{Key: k, Value: r.value(j)})
		}
		s.InsertBulk(items)
		for _, it := range items {
			m.put(it.Key, it.Value)
		}
	case 5: // ExtractRange: returned in key order
		rg := in.arc()
		want := r.m.clockwise(rg)
		sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		got := s.ExtractRange(rg)
		if !itemsEqual(got, want) {
			r.t.Fatalf("step %d: ExtractRange(%v) = %d items, model %d", r.step, rg, len(got), len(want))
		}
		for _, it := range want {
			delete(m.items, it.Key)
		}
	case 6: // ExtractRangeLimit: one clockwise page
		rg := in.arc()
		maxItems, maxBytes := in.byte()-64, in.byte()*8-256
		want, wantMore := page(m.clockwise(rg), maxItems, maxBytes)
		got, more := s.ExtractRangeLimit(rg, maxItems, maxBytes)
		if !itemsEqual(got, want) || more != wantMore {
			r.t.Fatalf("step %d: ExtractRangeLimit(%v, %d, %d) = %d items more=%v, model %d more=%v",
				r.step, rg, maxItems, maxBytes, len(got), more, len(want), wantMore)
		}
		for _, it := range want {
			delete(m.items, it.Key)
		}
	case 7: // GCTombstones
		cutoff := int64(in.byte())
		want := 0
		for k, at := range m.tombs {
			if at < cutoff {
				delete(m.tombs, k)
				want++
			}
		}
		if got := s.GCTombstones(cutoff); got != want {
			r.t.Fatalf("step %d: GCTombstones(%d) = %d, model %d", r.step, cutoff, got, want)
		}
	}
	r.maxBlocks = max(r.maxBlocks, len(s.blocks))
	r.check()
}

// check compares every read path of the store, its digest and its replay
// with the model.
func (r *modelRun) check() {
	t, s, m := r.t, &r.s, &r.m
	t.Helper()
	r.checkBlocks()
	if s.Len() != len(m.items) || s.TombstoneCount() != len(m.tombs) {
		t.Fatalf("step %d: Len %d / %d tombstones, model %d / %d", r.step, s.Len(), s.TombstoneCount(), len(m.items), len(m.tombs))
	}
	full := keyspace.FullRange()
	byKey := m.clockwise(full)
	if !itemsEqual(s.Items(), byKey) {
		t.Fatalf("step %d: Items differ from the model", r.step)
	}
	for i := 0; i < modelKeys; i++ {
		k := modelKey(i)
		v, ok := s.Get(k)
		mv, mok := m.items[k]
		if ok != mok || !bytes.Equal(v, mv) {
			t.Fatalf("step %d: Get(%v) = %q %v, model %q %v", r.step, k, v, ok, mv, mok)
		}
		at, ok := s.Tombstone(k)
		mat, mok := m.tombs[k]
		if ok != mok || at != mat {
			t.Fatalf("step %d: Tombstone(%v) = %d %v, model %d %v", r.step, k, at, ok, mat, mok)
		}
	}

	merged := r.mergedModel()
	for _, rg := range r.ranges() {
		want := arcOf(byKey, rg)
		mergedArc := arcOf(merged, rg)
		for _, caps := range [][2]int{{0, 0}, {1, 0}, {PageMaxItems + 100, 0}, {0, 600}, {40, 300}} {
			wp, wmore := page(want, caps[0], caps[1])
			gp, gmore := s.ScanPage(rg, caps[0], caps[1])
			if !itemsEqual(gp, wp) || gmore != wmore {
				t.Fatalf("step %d: ScanPage(%v, %d, %d) = %d items more=%v, model %d more=%v",
					r.step, rg, caps[0], caps[1], len(gp), gmore, len(wp), wmore)
			}
			wp, wmore = page(mergedArc, caps[0], caps[1])
			gp, gmore = ScanPageMerged(s, &r.fallback, rg, caps[0], caps[1])
			if !itemsEqual(gp, wp) || gmore != wmore {
				t.Fatalf("step %d: ScanPageMerged(%v, %d, %d) = %d items more=%v, model %d more=%v",
					r.step, rg, caps[0], caps[1], len(gp), gmore, len(wp), wmore)
			}
		}
	}

	leaves := s.DigestLeaves()
	s.EnableDigest(modelDepth)
	if !reflect.DeepEqual(leaves, s.DigestLeaves()) {
		t.Fatalf("step %d: maintained digest differs from a rebuild", r.step)
	}
	if !reflect.DeepEqual(s.Digest(full, modelDepth), leaves) {
		t.Fatalf("step %d: on-demand digest differs from the maintained one", r.step)
	}
	var states []antientropy.State
	for k, v := range m.items {
		states = append(states, antientropy.State{Key: k, Hash: antientropy.ItemHash(k, v)})
	}
	for k := range m.tombs {
		states = append(states, antientropy.State{Key: k, Hash: antientropy.TombHash(k), Deleted: true})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Key < states[j].Key })
	if got := s.SyncStates(full); !reflect.DeepEqual(got, states) && len(got)+len(states) > 0 {
		t.Fatalf("step %d: SyncStates = %d states, model %d", r.step, len(got), len(states))
	}

	if !itemsEqual(r.replay.Items(), byKey) || !reflect.DeepEqual(r.replay.Tombstones(), s.Tombstones()) {
		t.Fatalf("step %d: the store replayed from the sink's stream differs", r.step)
	}
}

// ranges returns the arcs check scans: full, plain and wrapping, each
// starting on a block's last key and just past it, so scans start at and
// cross block edges, plus a few fixed arcs.
func (r *modelRun) ranges() []keyspace.Range {
	rgs := []keyspace.Range{
		keyspace.FullRange(),
		{Start: modelKey(modelKeys / 3), End: modelKey(modelKeys / 2)},
		{Start: modelKey(modelKeys - 100), End: modelKey(200)},
	}
	for _, b := range []int{0, len(r.s.lasts) / 2} {
		if b >= len(r.s.lasts) {
			continue
		}
		edge := r.s.lasts[b]
		for _, start := range []keyspace.Key{edge, edge + 1} {
			rgs = append(rgs,
				keyspace.Range{Start: start, End: start},
				keyspace.Range{Start: start, End: start + keyspace.Key(^uint64(0)/3)},
				keyspace.Range{Start: start, End: start - 1})
		}
	}
	return rgs
}

// mergedModel is ScanPageMerged's reference over the full circle, in key
// order: the primary's items, plus the fallback's where the primary has
// neither an item nor a tombstone.
func (r *modelRun) mergedModel() []Item {
	full := keyspace.FullRange()
	out := r.m.clockwise(full)
	for _, it := range r.fbModel.clockwise(full) {
		_, live := r.m.items[it.Key]
		_, dead := r.m.tombs[it.Key]
		if !live && !dead {
			out = append(out, it)
		}
	}
	slices.SortFunc(out, func(a, b Item) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// arcOf returns the items of a key-ordered list that lie in rg, clockwise
// from rg.Start.
func arcOf(byKey []Item, rg keyspace.Range) []Item {
	i := sort.Search(len(byKey), func(i int) bool { return byKey[i].Key >= rg.Start })
	out := make([]Item, 0, len(byKey))
	for _, part := range [][]Item{byKey[i:], byKey[:i]} {
		for _, it := range part {
			if rg.Contains(it.Key) {
				out = append(out, it)
			}
		}
	}
	return out
}

// checkBlocks checks the block layout's invariants.
func (r *modelRun) checkBlocks() {
	s := &r.s
	if len(s.lasts) != len(s.blocks) {
		r.t.Fatalf("step %d: %d blocks, %d last keys", r.step, len(s.blocks), len(s.lasts))
	}
	n := 0
	for b, blk := range s.blocks {
		if len(blk) == 0 || len(blk) > PageMaxItems {
			r.t.Fatalf("step %d: block %d holds %d items", r.step, b, len(blk))
		}
		if !slices.IsSortedFunc(blk, func(a, b Item) int { return cmp.Compare(a.Key, b.Key) }) || s.lasts[b] != blk[len(blk)-1].Key {
			r.t.Fatalf("step %d: block %d unsorted or its last key is stale", r.step, b)
		}
		if b > 0 && s.lasts[b-1] >= blk[0].Key {
			r.t.Fatalf("step %d: block %d overlaps block %d", r.step, b, b-1)
		}
		n += len(blk)
	}
	if n != s.n {
		r.t.Fatalf("step %d: blocks hold %d items, count says %d", r.step, n, s.n)
	}
}

func itemsEqual(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// runStoreOps runs the program in data against a store and the model,
// checking them after every operation.
func runStoreOps(t testing.TB, data []byte) *modelRun {
	r := newModelRun(t)
	in := &opReader{data: data}
	for len(in.data) > 0 {
		r.exec(in.next())
	}
	return r
}

// randomOps returns a program of n operations that favours bulk inserts,
// so the store soon spans several blocks, and keeps most ExtractRange
// arcs short.
func randomOps(seed int64, n int) []byte {
	rnd := rand.New(rand.NewSource(seed))
	var data []byte
	for range n {
		op := byte(rnd.Intn(8))
		if rnd.Intn(3) == 0 {
			op = 4
		}
		data = append(data, op)
		for range opArgs {
			data = append(data, byte(rnd.Intn(256)))
		}
		if op == 5 && rnd.Intn(4) > 0 {
			data[len(data)-opArgs+2] %= 32 // an arc of at most 64 keys
		}
	}
	return data
}

// TestStoreMatchesModel drives random programs over a key space of four
// blocks' worth of keys and checks every read path against a map model
// after each operation: the block layout must be invisible.
func TestStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := runStoreOps(t, randomOps(seed, 70))
		if r.maxBlocks < 3 {
			t.Fatalf("seed %d: the store never spanned 3 blocks (max %d)", seed, r.maxBlocks)
		}
	}
}

// FuzzStoreOps runs arbitrary programs through runStoreOps, the harness
// of TestStoreMatchesModel.
// The seed corpus runs in every go test.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		4, 0, 0, 255, 0, 0, // InsertBulk: 1020 keys from key 0, stride 1
		4, 4, 0, 255, 1, 0, // InsertBulk: 1020 keys from key 1024, stride 2
		6, 7, 255, 255, 0, 0, // ExtractRangeLimit, no caps, on an arc over the top
	})
	f.Add(randomOps(11, 30))
	f.Add(randomOps(12, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runStoreOps(t, data)
	})
}
