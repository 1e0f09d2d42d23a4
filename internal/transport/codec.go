package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// codecBinary is the wire codec version, offered and confirmed in the
// 5-byte hello that opens every connection (see the handshake in tcp.go /
// pool.go): the hand-rolled tag/length/value format below, in every
// length-delimited frame. A peer that offers less is refused; the version
// byte stays so that a future codec can still be negotiated.
const codecBinary = 2

// The binary payload is a flat sequence of fields, each encoded as
// [tag uvarint][length uvarint][value], preceded by one kind byte ('Q' for
// requests, 'S' for responses) that makes a frame self-describing enough to
// reject cross-decoding. Zero-valued fields are omitted. Unknown tags are
// skipped by length, so fields can be added without a codec version bump as
// long as old decoders may ignore them.
//
// Value encodings inside a field:
//   - bool: zero-length (presence means true)
//   - int: zigzag uvarint
//   - float64: 8-byte big-endian IEEE 754 bits
//   - Key / uint64: 8-byte big-endian (keys are uniform over the full
//     space, so varints would average longer)
//   - string / []byte: raw bytes
//   - PeerRef: [8-byte key][addr bytes]
//   - slices: uvarint count, then the elements (except []Key and []uint64,
//     which are raw 8-byte concatenations with the count implied by length)
//
// Encoding is one pass: every field's length is known before its bytes are
// written (a slice's from its count and element lengths), so values go
// straight into the frame. The one exception is a nested Result, written
// in place and then moved right by the width of its header.
const (
	binKindRequest  = 'Q'
	binKindResponse = 'S'
)

// Request field tags.
const (
	rtagOp = iota + 1
	rtagFrom
	rtagKey
	rtagRange
	rtagValue
	rtagLimit
	rtagItems
	rtagTombs
	rtagDrop
	rtagDepth
	rtagBuckets
	rtagValues
	rtagStates
	rtagSizeEst
	rtagExclude
	rtagCarry
)

// Response field tags.
const (
	stagOK = iota + 1
	stagErr
	stagPeer
	stagPeers
	stagDegree
	stagValue
	stagFound
	stagDeleted
	stagAcks
	stagItems
	stagMore
	stagCursor
	stagTombs
	stagDigest
	stagStates
	stagSizeEst
	stagMaxIn
	stagMaxOut
	stagInDeg
	stagResult
	stagArc
)

var errBadPayload = errors.New("transport: bad binary payload")

// --- encoding ------------------------------------------------------------

// binWriter appends the binary encoding to a byte slice (the pooled frame
// buffer's tail, in practice), in one pass with no staging buffer. All
// methods are infallible; size limits are enforced by the frame layer
// after encoding.
type binWriter struct {
	b []byte
}

func (w *binWriter) uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *binWriter) fixed64(v uint64) {
	w.b = binary.BigEndian.AppendUint64(w.b, v)
}

// field writes a tag and length header; the caller must then append exactly
// length bytes of value.
func (w *binWriter) field(tag int, length int) {
	w.uvarint(uint64(tag))
	w.uvarint(uint64(length))
}

func (w *binWriter) boolField(tag int, v bool) {
	if v {
		w.field(tag, 0)
	}
}

func (w *binWriter) intField(tag int, v int) {
	if v == 0 {
		return
	}
	zz := zigzag(int64(v))
	w.field(tag, uvarintLen(zz))
	w.uvarint(zz)
}

func (w *binWriter) float64Field(tag int, v float64) {
	if v == 0 {
		return
	}
	w.field(tag, 8)
	w.fixed64(math.Float64bits(v))
}

func (w *binWriter) keyField(tag int, k keyspace.Key) {
	if k == 0 {
		return
	}
	w.field(tag, 8)
	w.fixed64(uint64(k))
}

func (w *binWriter) bytesField(tag int, v []byte) {
	if len(v) == 0 {
		return
	}
	w.field(tag, len(v))
	w.b = append(w.b, v...)
}

func (w *binWriter) stringField(tag int, v string) {
	if len(v) == 0 {
		return
	}
	w.field(tag, len(v))
	w.b = append(w.b, v...)
}

func (w *binWriter) rangeField(tag int, rg keyspace.Range) {
	if rg.Start == 0 && rg.End == 0 {
		return
	}
	w.field(tag, 16)
	w.fixed64(uint64(rg.Start))
	w.fixed64(uint64(rg.End))
}

func (w *binWriter) peerRefField(tag int, p PeerRef) {
	if p.Addr == "" && p.Key == 0 {
		return
	}
	w.field(tag, 8+len(p.Addr))
	w.fixed64(uint64(p.Key))
	w.b = append(w.b, p.Addr...)
}

// fixed64sField writes keys or hashes as their raw 8-byte concatenation.
func fixed64sField[T ~uint64](w *binWriter, tag int, vs []T) {
	if len(vs) == 0 {
		return
	}
	w.field(tag, 8*len(vs))
	for _, v := range vs {
		w.fixed64(uint64(v))
	}
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed value onto an unsigned one, small magnitudes first.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// sliceHeader starts a counted slice of count elements whose encodings add
// up to body bytes: tag, field length and count, then room for the body, so
// the caller writes its elements straight into the frame. Nothing is
// written for an empty slice.
func (w *binWriter) sliceHeader(tag, count, body int) {
	if count == 0 {
		return
	}
	w.field(tag, uvarintLen(uint64(count))+body)
	w.uvarint(uint64(count))
	w.b = slices.Grow(w.b, body)
}

func (w *binWriter) itemsField(tag int, items []storage.Item) {
	body := 8 * len(items)
	for _, it := range items {
		body += uvarintLen(uint64(len(it.Value))) + len(it.Value)
	}
	w.sliceHeader(tag, len(items), body)
	for _, it := range items {
		w.fixed64(uint64(it.Key))
		w.uvarint(uint64(len(it.Value)))
		w.b = append(w.b, it.Value...)
	}
}

func (w *binWriter) tombsField(tag int, tombs []storage.Tombstone) {
	body := 8 * len(tombs)
	for _, tb := range tombs {
		body += uvarintLen(zigzag(tb.At))
	}
	w.sliceHeader(tag, len(tombs), body)
	for _, tb := range tombs {
		w.fixed64(uint64(tb.Key))
		w.uvarint(zigzag(tb.At))
	}
}

func (w *binWriter) statesField(tag int, states []antientropy.State) {
	w.sliceHeader(tag, len(states), 17*len(states))
	for _, st := range states {
		w.fixed64(uint64(st.Key))
		w.fixed64(st.Hash)
		if st.Deleted {
			w.b = append(w.b, 1)
		} else {
			w.b = append(w.b, 0)
		}
	}
}

func (w *binWriter) peersField(tag int, peers []PeerRef) {
	body := 8 * len(peers)
	for _, p := range peers {
		body += uvarintLen(uint64(len(p.Addr))) + len(p.Addr)
	}
	w.sliceHeader(tag, len(peers), body)
	for _, p := range peers {
		w.fixed64(uint64(p.Key))
		w.uvarint(uint64(len(p.Addr)))
		w.b = append(w.b, p.Addr...)
	}
}

func (w *binWriter) addrsField(tag int, addrs []Addr) {
	body := 0
	for _, a := range addrs {
		body += uvarintLen(uint64(len(a))) + len(a)
	}
	w.sliceHeader(tag, len(addrs), body)
	for _, a := range addrs {
		w.uvarint(uint64(len(a)))
		w.b = append(w.b, a...)
	}
}

func (w *binWriter) intsField(tag int, vs []int) {
	body := 0
	for _, v := range vs {
		body += uvarintLen(zigzag(int64(v)))
	}
	w.sliceHeader(tag, len(vs), body)
	for _, v := range vs {
		w.uvarint(zigzag(int64(v)))
	}
}

// appendRequest appends the binary encoding of req to b.
func appendRequest(b []byte, req *Request) []byte {
	w := binWriter{b: append(b, binKindRequest)}
	w.stringField(rtagOp, string(req.Op))
	w.peerRefField(rtagFrom, req.From)
	w.keyField(rtagKey, req.Key)
	w.rangeField(rtagRange, req.Range)
	w.bytesField(rtagValue, req.Value)
	w.intField(rtagLimit, req.Limit)
	w.itemsField(rtagItems, req.Items)
	w.tombsField(rtagTombs, req.Tombs)
	fixed64sField(&w, rtagDrop, req.Drop)
	w.intField(rtagDepth, req.Depth)
	w.intsField(rtagBuckets, req.Buckets)
	w.boolField(rtagValues, req.Values)
	w.statesField(rtagStates, req.States)
	w.float64Field(rtagSizeEst, req.SizeEst)
	w.addrsField(rtagExclude, req.Exclude)
	w.stringField(rtagCarry, string(req.Carry))
	return w.b
}

// appendResponse appends the binary encoding of resp to b.
func appendResponse(b []byte, resp *Response) []byte {
	w := binWriter{b: append(b, binKindResponse)}
	w.responseFields(resp)
	if resp.Result != nil {
		// The carried op's response nests one level deep, as a plain field
		// sequence; its own Result is never encoded (nor decoded), so a
		// frame cannot make the decoder recurse. It is written in place and
		// then moved right by the width of its header, once its length is
		// known: one copy of bytes still in cache.
		start := len(w.b)
		w.responseFields(resp.Result)
		n := len(w.b) - start
		var hdr [2 * binary.MaxVarintLen64]byte
		h := binary.AppendUvarint(binary.AppendUvarint(hdr[:0], stagResult), uint64(n))
		w.b = append(w.b, h...)
		copy(w.b[start+len(h):], w.b[start:start+n])
		copy(w.b[start:], h)
	}
	return w.b
}

// responseFields appends every field of resp except Result.
func (w *binWriter) responseFields(resp *Response) {
	w.boolField(stagOK, resp.OK)
	w.stringField(stagErr, resp.Err)
	w.peerRefField(stagPeer, resp.Peer)
	w.peersField(stagPeers, resp.Peers)
	w.intField(stagDegree, resp.Degree)
	w.bytesField(stagValue, resp.Value)
	w.boolField(stagFound, resp.Found)
	w.boolField(stagDeleted, resp.Deleted)
	w.intField(stagAcks, resp.Acks)
	w.itemsField(stagItems, resp.Items)
	w.boolField(stagMore, resp.More)
	w.keyField(stagCursor, resp.Cursor)
	w.tombsField(stagTombs, resp.Tombs)
	fixed64sField(w, stagDigest, resp.Digest)
	w.statesField(stagStates, resp.States)
	w.float64Field(stagSizeEst, resp.SizeEst)
	w.intField(stagMaxIn, resp.MaxIn)
	w.intField(stagMaxOut, resp.MaxOut)
	w.intField(stagInDeg, resp.InDeg)
	w.rangeField(stagArc, resp.Arc)
}

// --- decoding ------------------------------------------------------------

// binReader consumes a binary payload. Every read is bounds-checked; any
// overrun or malformed varint fails the whole decode, a protocol violation
// that ends the connection. Addresses go through intern (nil: each one
// converted on its own).
type binReader struct {
	b      []byte
	err    bool
	intern *addrTable
}

// opNames maps the wire spelling of every protocol op to its constant, so
// a known op decodes without allocating. It is filled at start-up and only
// read after.
var opNames = func() map[string]Op {
	m := make(map[string]Op)
	for _, op := range []Op{
		OpPing, OpInfo, OpNotify, OpNeighbors, OpLink, OpUnlink, OpFindOwner,
		OpPut, OpGet, OpDelete, OpScan, OpMigrate, OpSuccList, OpReplicate,
		OpReplicateDel, OpDigest, OpSyncPull, OpReadRepair,
	} {
		m[string(op)] = op
	}
	return m
}()

// decodeOp returns the op spelled b: the table's constant for a protocol
// op, a string of its own for an unknown one.
func decodeOp(b []byte) Op {
	if op, ok := opNames[string(b)]; ok {
		return op
	}
	return Op(b)
}

// maxInternedAddrs bounds an addrTable. A table that is full when a new
// address arrives is emptied and starts over, so a connection that sees
// more distinct peers than this keeps at most this many, and pays one
// conversion per address as if there were no table.
const maxInternedAddrs = 256

// addrTable interns the peer addresses one connection's read loop decodes:
// a ring's frames name the same few peers over and over (From, the replica
// chain), so each is converted to a string once, not once per frame. The
// read loop owns its table, so it needs no lock; every string in it is a
// copy, so none aliases a read buffer.
type addrTable struct {
	m map[string]Addr
}

// addr returns b as an Addr, from the table when it holds it.
func (t *addrTable) addr(b []byte) Addr {
	if t == nil || len(b) == 0 {
		return Addr(b)
	}
	if a, ok := t.m[string(b)]; ok {
		return a
	}
	a := Addr(b)
	if t.m == nil {
		t.m = make(map[string]Addr)
	} else if len(t.m) >= maxInternedAddrs {
		clear(t.m)
	}
	t.m[string(a)] = a
	return a
}

func (r *binReader) fail() {
	r.err = true
	r.b = nil
}

func (r *binReader) empty() bool { return len(r.b) == 0 }

func (r *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) fixed64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *binReader) take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *binReader) zigzag() int {
	v := r.uvarint()
	return int(int64(v>>1) ^ -int64(v&1))
}

// field reads the next [tag][length] header and returns the tag plus a
// sub-reader over exactly the field's value bytes.
func (r *binReader) field() (int, binReader) {
	tag := r.uvarint()
	length := r.uvarint()
	if r.err {
		return 0, binReader{}
	}
	return int(tag), binReader{b: r.take(int(length)), intern: r.intern}
}

// sliceCount reads a slice's element count and sanity-checks it against the
// remaining bytes (each element costs at least minElem bytes), so corrupt
// counts cannot drive huge allocations.
func (r *binReader) sliceCount(minElem int) int {
	n := r.uvarint()
	if r.err || n > uint64(len(r.b)/minElem)+1 {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *binReader) peerRef() PeerRef {
	key := r.fixed64()
	addr := r.b
	r.b = nil
	if r.err {
		return PeerRef{}
	}
	return PeerRef{Addr: r.intern.addr(addr), Key: keyspace.Key(key)}
}

// fixed64s reads what fixed64sField wrote.
func fixed64s[T ~uint64](r *binReader) []T {
	if len(r.b) == 0 || len(r.b)%8 != 0 {
		if len(r.b) != 0 {
			r.fail()
		}
		return nil
	}
	vs := make([]T, 0, len(r.b)/8)
	for !r.empty() {
		vs = append(vs, T(r.fixed64()))
	}
	return vs
}

func (r *binReader) items() []storage.Item {
	n := r.sliceCount(9)
	if n == 0 {
		return nil
	}
	items := make([]storage.Item, 0, n)
	for i := 0; i < n; i++ {
		key := r.fixed64()
		vlen := r.uvarint()
		if r.err {
			return nil
		}
		items = append(items, storage.Item{Key: keyspace.Key(key), Value: r.take(int(vlen))})
	}
	return items
}

func (r *binReader) tombs() []storage.Tombstone {
	n := r.sliceCount(9)
	if n == 0 {
		return nil
	}
	tombs := make([]storage.Tombstone, 0, n)
	for i := 0; i < n; i++ {
		key := r.fixed64()
		zz := r.uvarint()
		if r.err {
			return nil
		}
		tombs = append(tombs, storage.Tombstone{
			Key: keyspace.Key(key),
			At:  int64(zz>>1) ^ -int64(zz&1),
		})
	}
	return tombs
}

func (r *binReader) states() []antientropy.State {
	n := r.sliceCount(17)
	if n == 0 {
		return nil
	}
	states := make([]antientropy.State, 0, n)
	for i := 0; i < n; i++ {
		key := r.fixed64()
		hash := r.fixed64()
		del := r.take(1)
		if r.err {
			return nil
		}
		states = append(states, antientropy.State{
			Key: keyspace.Key(key), Hash: hash, Deleted: del[0] != 0,
		})
	}
	return states
}

func (r *binReader) peers() []PeerRef {
	n := r.sliceCount(9)
	if n == 0 {
		return nil
	}
	peers := make([]PeerRef, 0, n)
	for i := 0; i < n; i++ {
		key := r.fixed64()
		alen := r.uvarint()
		if r.err {
			return nil
		}
		peers = append(peers, PeerRef{
			Addr: r.intern.addr(r.take(int(alen))), Key: keyspace.Key(key),
		})
	}
	return peers
}

func (r *binReader) addrs() []Addr {
	n := r.sliceCount(1)
	if n == 0 {
		return nil
	}
	addrs := make([]Addr, 0, n)
	for i := 0; i < n; i++ {
		alen := r.uvarint()
		if r.err {
			return nil
		}
		addrs = append(addrs, r.intern.addr(r.take(int(alen))))
	}
	return addrs
}

func (r *binReader) ints() []int {
	n := r.sliceCount(1)
	if n == 0 {
		return nil
	}
	vs := make([]int, 0, n)
	for i := 0; i < n; i++ {
		vs = append(vs, r.zigzag())
		if r.err {
			return nil
		}
	}
	return vs
}

// decodeRequest decodes a binary request payload into req. Nothing decoded
// aliases b: Op and Carry come from the table of protocol ops (opNames),
// addresses from addrs (the connection's table; nil converts each one), an
// unknown op or a new address is converted to a string of its own, slices
// are built fresh, and the values (Value and each Items[].Value) are
// copied into one allocation of exactly their summed length, so b may be
// reused as soon as decodeRequest returns.
func decodeRequest(b []byte, req *Request, addrs *addrTable) error {
	if len(b) == 0 || b[0] != binKindRequest {
		return fmt.Errorf("%w: not a request", errBadPayload)
	}
	r := binReader{b: b[1:], intern: addrs}
	for !r.empty() && !r.err {
		tag, fr := r.field()
		if r.err {
			break
		}
		switch tag {
		case rtagOp:
			req.Op = decodeOp(fr.b)
			fr.b = nil
		case rtagFrom:
			req.From = fr.peerRef()
		case rtagKey:
			req.Key = keyspace.Key(fr.fixed64())
		case rtagRange:
			req.Range = keyspace.Range{Start: keyspace.Key(fr.fixed64()), End: keyspace.Key(fr.fixed64())}
		case rtagValue:
			req.Value = fr.b
			fr.b = nil
		case rtagLimit:
			req.Limit = fr.zigzag()
		case rtagItems:
			req.Items = fr.items()
		case rtagTombs:
			req.Tombs = fr.tombs()
		case rtagDrop:
			req.Drop = fixed64s[keyspace.Key](&fr)
		case rtagDepth:
			req.Depth = fr.zigzag()
		case rtagBuckets:
			req.Buckets = fr.ints()
		case rtagValues:
			req.Values = true
		case rtagStates:
			req.States = fr.states()
		case rtagSizeEst:
			req.SizeEst = math.Float64frombits(fr.fixed64())
		case rtagExclude:
			req.Exclude = fr.addrs()
		case rtagCarry:
			req.Carry = decodeOp(fr.b)
			fr.b = nil
		default:
			// Unknown field from a newer peer: skipped by length.
		}
		if fr.err {
			return errBadPayload
		}
	}
	if r.err {
		return errBadPayload
	}
	o := ownBuf{b: make([]byte, valuesLen(req.Value, req.Items))}
	req.Value = o.copy(req.Value)
	o.items(req.Items)
	return nil
}

// decodeResponse decodes a binary response payload into resp, a nested
// Result included; like decodeRequest, it leaves nothing aliasing b: the
// addresses (Peer, Peers) come from addrs or are converted, and the values
// of both levels share one exact-size allocation.
func decodeResponse(b []byte, resp *Response, addrs *addrTable) error {
	if len(b) == 0 || b[0] != binKindResponse {
		return fmt.Errorf("%w: not a response", errBadPayload)
	}
	r := binReader{b: b[1:], intern: addrs}
	if err := r.responseFields(resp, true); err != nil {
		return err
	}
	size := valuesLen(resp.Value, resp.Items)
	if resp.Result != nil {
		size += valuesLen(resp.Result.Value, resp.Result.Items)
	}
	o := ownBuf{b: make([]byte, size)}
	resp.Value = o.copy(resp.Value)
	o.items(resp.Items)
	if resp.Result != nil {
		resp.Result.Value = o.copy(resp.Result.Value)
		o.items(resp.Result.Items)
	}
	return nil
}

// valuesLen is the byte count of v and of every value in items.
func valuesLen(v []byte, items []storage.Item) int {
	n := len(v)
	for i := range items {
		n += len(items[i].Value)
	}
	return n
}

// ownBuf hands out the decoded values' copies, back to back, from one
// buffer sized to hold them exactly.
type ownBuf struct {
	b []byte
}

// copy moves v into the buffer and returns the copy, its capacity clipped
// to its length so an append never writes into its neighbour. nil stays
// nil and an empty value becomes an empty one that points at nothing.
func (o *ownBuf) copy(v []byte) []byte {
	if len(v) == 0 {
		if v == nil {
			return nil
		}
		return []byte{}
	}
	n := copy(o.b, v)
	c := o.b[:n:n]
	o.b = o.b[n:]
	return c
}

func (o *ownBuf) items(items []storage.Item) {
	for i := range items {
		items[i].Value = o.copy(items[i].Value)
	}
}

// responseFields decodes a response field sequence into resp. nest allows
// one Result field; inside a Result the tag is skipped like an unknown
// one, which bounds the recursion at one level whatever the frame holds.
func (r *binReader) responseFields(resp *Response, nest bool) error {
	for !r.empty() && !r.err {
		tag, fr := r.field()
		if r.err {
			break
		}
		switch tag {
		case stagOK:
			resp.OK = true
		case stagErr:
			resp.Err = string(fr.b)
			fr.b = nil
		case stagPeer:
			resp.Peer = fr.peerRef()
		case stagPeers:
			resp.Peers = fr.peers()
		case stagDegree:
			resp.Degree = fr.zigzag()
		case stagValue:
			resp.Value = fr.b
			fr.b = nil
		case stagFound:
			resp.Found = true
		case stagDeleted:
			resp.Deleted = true
		case stagAcks:
			resp.Acks = fr.zigzag()
		case stagItems:
			resp.Items = fr.items()
		case stagMore:
			resp.More = true
		case stagCursor:
			resp.Cursor = keyspace.Key(fr.fixed64())
		case stagTombs:
			resp.Tombs = fr.tombs()
		case stagDigest:
			resp.Digest = fixed64s[uint64](&fr)
		case stagStates:
			resp.States = fr.states()
		case stagSizeEst:
			resp.SizeEst = math.Float64frombits(fr.fixed64())
		case stagMaxIn:
			resp.MaxIn = fr.zigzag()
		case stagMaxOut:
			resp.MaxOut = fr.zigzag()
		case stagInDeg:
			resp.InDeg = fr.zigzag()
		case stagArc:
			resp.Arc = keyspace.Range{Start: keyspace.Key(fr.fixed64()), End: keyspace.Key(fr.fixed64())}
		case stagResult:
			if nest {
				// The recursive call makes its receiver escape: a copy
				// made here moves to the heap, fr (every field's) stays.
				nested := fr
				resp.Result = new(Response)
				if err := nested.responseFields(resp.Result, false); err != nil {
					return err
				}
			}
		default:
		}
		if fr.err {
			return errBadPayload
		}
	}
	if r.err {
		return errBadPayload
	}
	return nil
}
