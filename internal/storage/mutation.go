package storage

import "github.com/oscar-overlay/oscar/internal/keyspace"

// MutOp enumerates the primitive, replayable mutations of a Store. Every
// public mutator reduces to a sequence of these, each emitted to the
// store's sink (SetSink) at the moment it is applied — the same hook
// discipline the digest tree uses, so a write-ahead log fed by the sink
// can never diverge from the digest.
//
// The set is closed under idempotent replay: for any log of mutations L
// and state S, apply(apply(S, L), L) == apply(S, L). Each per-key op is
// absolute (the last record for a key dictates its final state) and MutGC
// is monotone in its cutoff, which is what lets recovery replay a log
// tail over a snapshot that may already include a prefix of it.
type MutOp uint8

const (
	// MutPut stores Value under Key, clearing any tombstone.
	MutPut MutOp = iota + 1
	// MutTombstone removes the live item and records Key deleted at At
	// (newest timestamp wins) — Delete, SetTombstone and
	// InsertTombstones all reduce to it.
	MutTombstone
	// MutDrop removes every trace of Key: live item and tombstone alike.
	MutDrop
	// MutRemoveItem removes the live item only, leaving tombstones — the
	// per-item record of ExtractRange/ExtractRangeLimit handing keys to a
	// new owner.
	MutRemoveItem
	// MutRemoveTomb removes the tombstone only — the per-key record of
	// ExtractTombstones.
	MutRemoveTomb
	// MutGC discards tombstones recorded before At.
	MutGC
)

// Mutation is one primitive store mutation: the unit a sink observes and
// a write-ahead log replays.
type Mutation struct {
	Op    MutOp
	Key   keyspace.Key
	Value []byte
	At    int64
}

// SetSink installs fn to observe every primitive mutation as it is
// applied, or removes the observer when fn is nil. The sink runs
// synchronously under the caller of the mutating method — whatever lock
// serialises the store's mutations serialises the sink — so a
// write-ahead log fed by it records mutations in exactly apply order.
func (s *Store) SetSink(fn func(Mutation)) { s.sink = fn }

// emit reports one applied mutation to the sink, if any.
func (s *Store) emit(m Mutation) {
	if s.sink != nil {
		s.sink(m)
	}
}

// ApplyMutation re-applies one recorded mutation — the replay half of the
// sink contract. Replay into a store with a sink attached re-emits (a
// recovering store attaches its sink only after replay).
func (s *Store) ApplyMutation(m Mutation) {
	switch m.Op {
	case MutPut:
		s.Put(m.Key, m.Value)
	case MutTombstone:
		s.SetTombstone(m.Key, m.At)
	case MutDrop:
		s.Drop(m.Key)
	case MutRemoveItem:
		s.emit(Mutation{Op: MutRemoveItem, Key: m.Key})
		s.removeItem(m.Key)
	case MutRemoveTomb:
		s.emit(Mutation{Op: MutRemoveTomb, Key: m.Key})
		s.clearTombstone(m.Key)
	case MutGC:
		s.GCTombstones(m.At)
	}
}

// Tombstones returns all tombstones in key order (a copy).
func (s *Store) Tombstones() []Tombstone {
	return append([]Tombstone(nil), s.tombs...)
}
