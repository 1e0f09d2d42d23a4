package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// appendRequest appends the binary encoding of req to b, outside any frame.
func appendRequest(b []byte, req *Request) []byte {
	w := binWriter{b: b}
	w.request(req)
	return w.b
}

// appendResponse appends the binary encoding of resp to b, outside any
// frame.
func appendResponse(b []byte, resp *Response) []byte {
	w := binWriter{b: b}
	w.response(resp)
	return w.b
}

// fullRequest exercises every field of the wire Request, including the
// bulk payloads (Items, Tombs, States) of the replication and anti-entropy
// protocols.
func fullRequest() *Request {
	return &Request{
		Op:    OpReplicate,
		From:  PeerRef{Addr: "10.0.0.7:9999", Key: keyspace.FromFloat(0.17)},
		Key:   keyspace.FromFloat(0.42),
		Range: keyspace.Range{Start: keyspace.FromFloat(0.9), End: keyspace.FromFloat(0.1)},
		Value: []byte("payload \x00\xff bytes"),
		Limit: -3,
		Items: []storage.Item{
			{Key: 1, Value: []byte("a")},
			{Key: keyspace.MaxKey, Value: []byte("")},
			{Key: 42, Value: []byte("zz-top")},
		},
		Tombs:   []storage.Tombstone{{Key: 9, At: -12345}, {Key: 10, At: 1}},
		Drop:    []keyspace.Key{3, keyspace.MaxKey, 0},
		Depth:   8,
		Buckets: []int{0, 255, 1 << 20},
		Values:  true,
		States: []antientropy.State{
			{Key: 5, Hash: 0xdeadbeefcafef00d, Deleted: true},
			{Key: 6, Hash: 1},
		},
		Exclude: []Addr{"1.2.3.4:1", "5.6.7.8:2"},
		Carry:   OpPut,
	}
}

func fullResponse() *Response {
	return &Response{
		OK:      true,
		Err:     "some failure",
		Peer:    PeerRef{Addr: "10.0.0.8:1234", Key: 7},
		Peers:   []PeerRef{{Addr: "a:1", Key: 1}, {Addr: "b:2", Key: keyspace.MaxKey}},
		Value:   []byte{0, 1, 2, 254, 255},
		Found:   true,
		Deleted: true,
		Acks:    3,
		Items:   []storage.Item{{Key: 11, Value: []byte("v")}},
		More:    true,
		Tombs:   []storage.Tombstone{{Key: 12, At: math.MaxInt64}},
		Digest:  []uint64{0, 1, math.MaxUint64},
		States:  []antientropy.State{{Key: 13, Hash: 2, Deleted: false}},
		MaxIn:   27,
		InDeg:   5,
		Arc:     keyspace.Range{Start: keyspace.FromFloat(0.95), End: 8},
		Owner:   PeerRef{Addr: "c:3", Key: 9},
	}
}

// arcAnswers are the two shapes of a find_owner answer from the owner,
// with its arc: a plain routing answer (Found, the owner in Peer), and a
// carried op's own response (the owner in Owner).
func arcAnswers() []*Response {
	owner := PeerRef{Addr: "10.0.0.9:7000", Key: keyspace.FromFloat(0.5)}
	arc := keyspace.Range{Start: keyspace.FromFloat(0.25) + 1, End: owner.Key + 1}
	chain := []PeerRef{{Addr: "10.0.0.10:7000", Key: keyspace.FromFloat(0.75)}}
	return []*Response{
		{OK: true, Found: true, Peer: owner, Peers: chain, Arc: arc},
		{OK: true, Found: true, Value: []byte("carried"), Acks: 1, Owner: owner, Peers: chain, Arc: arc},
	}
}

// TestArcRoundTrip round-trips the owner's arc on both find_owner shapes,
// and pins that an answer without one decodes as the zero Range — the
// full circle, which the requester reads as "no arc".
func TestArcRoundTrip(t *testing.T) {
	for i, resp := range arcAnswers() {
		var got Response
		if err := decodeResponse(appendResponse(nil, resp), &got, nil); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(&got)) {
			t.Fatalf("case %d: round trip mismatch:\n in: %+v\nout: %+v", i, resp, &got)
		}
	}
	var got Response
	plain := &Response{OK: true, Found: true, Peer: PeerRef{Addr: "a:1", Key: 4}}
	if err := decodeResponse(appendResponse(nil, plain), &got, nil); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Arc != (keyspace.Range{}) || !got.Arc.IsFull() {
		t.Fatalf("absent arc decoded as %v, want the zero Range", got.Arc)
	}
}

func TestBinaryRoundTripRequest(t *testing.T) {
	cases := []*Request{
		{},
		{Op: OpPing},
		{Op: OpGet, Key: 99},
		{Op: OpPut, Key: 1, Value: []byte("v"), From: PeerRef{Addr: "x:1", Key: 2}},
		{Op: OpFindOwner, Key: 1, Carry: OpScan, Range: keyspace.Range{Start: 1, End: 9}, Limit: 512},
		fullRequest(),
	}
	for i, req := range cases {
		enc := appendRequest(nil, req)
		var got Request
		if err := decodeRequest(enc, &got, nil); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(&got)) {
			t.Fatalf("case %d: round trip mismatch:\n in: %+v\nout: %+v", i, req, &got)
		}
	}
}

func TestBinaryRoundTripResponse(t *testing.T) {
	cases := []*Response{
		{},
		{OK: true},
		{OK: true, Peer: PeerRef{Addr: "y:2", Key: 3}},
		// A carried write the gate refused, and a carried get that ran and
		// found nothing: each must still arrive as "ran here", Owner set.
		{Err: "not owner", Owner: PeerRef{Addr: "z:3", Key: 4}},
		{OK: true, Owner: PeerRef{Addr: "z:3", Key: 4}},
		fullResponse(),
	}
	for i, resp := range cases {
		enc := appendResponse(nil, resp)
		var got Response
		if err := decodeResponse(enc, &got, nil); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(&got)) {
			t.Fatalf("case %d: round trip mismatch:\n in: %+v\nout: %+v", i, resp, &got)
		}
	}
}

// normalizeReq maps empty-but-non-nil slices to nil: the codec, which
// omits empty fields, does not distinguish them on the wire.
func normalizeReq(r *Request) *Request {
	c := *r
	if len(c.Value) == 0 {
		c.Value = nil
	}
	for i := range c.Items {
		if len(c.Items[i].Value) == 0 {
			c.Items[i].Value = nil
		}
	}
	return &c
}

func normalizeResp(r *Response) *Response {
	c := *r
	if len(c.Value) == 0 {
		c.Value = nil
	}
	for i := range c.Items {
		if len(c.Items[i].Value) == 0 {
			c.Items[i].Value = nil
		}
	}
	return &c
}

// randomRequest builds a request with an arbitrary subset of fields set —
// the property-test generator. It never produces empty-but-non-nil slices
// (the codec cannot represent them, by design: empty fields are omitted).
func randomRequest(rng *rand.Rand) *Request {
	ops := []Op{OpPing, OpFindOwner, OpPut, OpGet, OpDelete, OpScan,
		OpMigrate, OpSuccList, OpReplicate, OpReplicateDel, OpDigest,
		OpSyncPull, OpReadRepair, OpNotify, OpNeighbors, OpLink, OpUnlink}
	req := &Request{Op: ops[rng.Intn(len(ops))]}
	if req.Op == OpFindOwner && rng.Intn(2) == 0 {
		req.Carry = []Op{OpGet, OpPut, OpDelete, OpScan}[rng.Intn(4)]
	}
	if rng.Intn(2) == 0 {
		req.Key = keyspace.Key(rng.Uint64())
	}
	if rng.Intn(2) == 0 {
		req.From = PeerRef{Addr: Addr(randString(rng, 1+rng.Intn(20))), Key: keyspace.Key(rng.Uint64())}
	}
	if rng.Intn(2) == 0 {
		req.Range = keyspace.Range{Start: keyspace.Key(rng.Uint64()), End: keyspace.Key(rng.Uint64())}
	}
	if rng.Intn(2) == 0 {
		req.Value = randBytes(rng, 1+rng.Intn(64))
	}
	if rng.Intn(2) == 0 {
		req.Limit = rng.Intn(2000) - 1000
	}
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			req.Items = append(req.Items, storage.Item{
				Key: keyspace.Key(rng.Uint64()), Value: randBytes(rng, 1+rng.Intn(32)),
			})
		}
	}
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			req.Tombs = append(req.Tombs, storage.Tombstone{
				Key: keyspace.Key(rng.Uint64()), At: rng.Int63() - rng.Int63(),
			})
		}
	}
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			req.Drop = append(req.Drop, keyspace.Key(rng.Uint64()))
		}
	}
	if rng.Intn(2) == 0 {
		req.Depth = rng.Intn(20)
	}
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			req.Buckets = append(req.Buckets, rng.Intn(1<<16))
		}
	}
	req.Values = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			req.States = append(req.States, antientropy.State{
				Key: keyspace.Key(rng.Uint64()), Hash: rng.Uint64(), Deleted: rng.Intn(2) == 0,
			})
		}
	}
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			req.Exclude = append(req.Exclude, Addr(randString(rng, 1+rng.Intn(20))))
		}
	}
	return req
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randString(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.:"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestBinaryRoundTripProperty is the encode→decode == identity property
// over randomly generated requests and responses.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		req := randomRequest(rng)
		var got Request
		if err := decodeRequest(appendRequest(nil, req), &got, nil); err != nil {
			t.Fatalf("iter %d: decode: %v\nreq: %+v", i, err, req)
		}
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(&got)) {
			t.Fatalf("iter %d: mismatch:\n in: %+v\nout: %+v", i, req, &got)
		}
	}
}

// TestBinaryUnknownFieldSkipped proves forward compatibility: a payload
// carrying an unknown tag decodes cleanly, ignoring it. That includes the
// ring-size estimate an older peer still sends in place, between the
// fields around it: tag 14 of a request and tag 16 of a response, each an
// 8-byte float; and a response's reserved tag 20, a nested Result.
func TestBinaryUnknownFieldSkipped(t *testing.T) {
	enc := appendRequest(nil, &Request{Op: OpPing, Key: 7})
	// Append an unknown field: tag 200, 3-byte value.
	w := binWriter{b: enc}
	w.field(200, 3)
	w.b = append(w.b, 1, 2, 3)
	var got Request
	if err := decodeRequest(w.b, &got, nil); err != nil {
		t.Fatalf("decode with unknown field: %v", err)
	}
	if got.Op != OpPing || got.Key != 7 {
		t.Fatalf("decoded %+v", got)
	}

	enc, want := oldSuccList()
	var old Request
	if err := decodeRequest(enc, &old, nil); err != nil {
		t.Fatalf("decode an old succ_list: %v", err)
	}
	if !reflect.DeepEqual(&old, want) {
		t.Fatalf("old succ_list decoded %+v, want %+v", &old, want)
	}
	enc, wantResp := oldSuccListAnswer()
	var oldResp Response
	if err := decodeResponse(enc, &oldResp, nil); err != nil {
		t.Fatalf("decode an old succ_list answer: %v", err)
	}
	if !reflect.DeepEqual(&oldResp, wantResp) {
		t.Fatalf("old succ_list answer decoded %+v, want %+v", &oldResp, wantResp)
	}
	enc, wantResp = oldCarriedAnswer()
	oldResp = Response{}
	if err := decodeResponse(enc, &oldResp, nil); err != nil {
		t.Fatalf("decode an old carried answer: %v", err)
	}
	if !reflect.DeepEqual(&oldResp, wantResp) {
		t.Fatalf("old carried answer decoded %+v, want %+v", &oldResp, wantResp)
	}
}

// oldSuccList is a succ_list request as an older peer encodes it, with its
// ring-size estimate as tag 14 between States and Exclude, and the request
// it decodes to.
func oldSuccList() ([]byte, *Request) {
	want := &Request{Op: OpSuccList, From: PeerRef{Addr: "10.0.0.7:7000", Key: 9}, Exclude: []Addr{"1.2.3.4:1"}}
	w := binWriter{b: appendRequest(nil, &Request{Op: want.Op, From: want.From})}
	w.field(14, 8)
	w.fixed64(math.Float64bits(147.25))
	w.addrsField(rtagExclude, want.Exclude)
	return w.b, want
}

// oldSuccListAnswer is oldSuccList's answer: the estimate is tag 16,
// between States and MaxIn.
func oldSuccListAnswer() ([]byte, *Response) {
	want := &Response{
		OK: true, Peer: PeerRef{Addr: "10.0.0.8:7000", Key: 3},
		Peers: []PeerRef{{Addr: "a:1", Key: 11}, {Addr: "b:2", Key: 12}},
		MaxIn: 27,
	}
	w := binWriter{b: appendResponse(nil, &Response{OK: true, Peer: want.Peer, Peers: want.Peers})}
	w.field(16, 8)
	w.fixed64(math.Float64bits(9.75))
	w.intField(stagMaxIn, want.MaxIn)
	return w.b, want
}

// TestCarriedOpRoundTrip round-trips the carried-op fields through whole
// frames: a Carry the decoder drops would run nowhere, and a lost Owner
// would make the requester send the op a second time.
func TestCarriedOpRoundTrip(t *testing.T) {
	f := acquireFrame()
	defer releaseFrame(f)
	if err := f.encode(1, fullRequest()); err != nil {
		t.Fatalf("encode request: %v", err)
	}
	var req Request
	if _, err := readMuxFrame(bufio.NewReader(bytes.NewReader(f.bytes())), &req, nil); err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if !reflect.DeepEqual(normalizeReq(fullRequest()), normalizeReq(&req)) {
		t.Errorf("request mismatch:\n in: %+v\nout: %+v", fullRequest(), &req)
	}
	if err := f.encode(2, fullResponse()); err != nil {
		t.Fatalf("encode response: %v", err)
	}
	var resp Response
	if _, err := readMuxFrame(bufio.NewReader(bytes.NewReader(f.bytes())), &resp, nil); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !reflect.DeepEqual(normalizeResp(fullResponse()), normalizeResp(&resp)) {
		t.Errorf("response mismatch:\n in: %+v\nout: %+v", fullResponse(), &resp)
	}
}

// oldCarriedAnswer is a carried get's answer as a codec-2 peer encoded it:
// Found with the owner in Peer, then the get's own response nested in tag
// 20 (Result). Tag 20 is reserved now, so the frame decodes to the outer
// fields alone.
func oldCarriedAnswer() ([]byte, *Response) {
	want := &Response{OK: true, Found: true, Peer: PeerRef{Addr: "10.0.0.9:7000", Key: 5}}
	inner := appendResponse(nil, &Response{OK: true, Found: true, Value: []byte("v")})[1:]
	w := binWriter{b: appendResponse(nil, want)}
	w.field(20, len(inner))
	w.b = append(w.b, inner...)
	return w.b, want
}

// TestBinaryRejectsCrossKind ensures a response payload cannot decode as a
// request and vice versa.
func TestBinaryRejectsCrossKind(t *testing.T) {
	if err := decodeRequest(appendResponse(nil, &Response{OK: true}), &Request{}, nil); err == nil {
		t.Error("response payload decoded as request")
	}
	if err := decodeResponse(appendRequest(nil, &Request{Op: OpPing}), &Response{}, nil); err == nil {
		t.Error("request payload decoded as response")
	}
	if err := decodeRequest(nil, &Request{}, nil); err == nil {
		t.Error("empty payload decoded as request")
	}
}

// FuzzDecodeRequest fuzzes the binary request decoder: arbitrary input
// must never panic or over-allocate, and any input that decodes must
// re-encode into a payload that decodes to the same request (canonical
// stability) — and into the same bytes after the input is overwritten,
// since nothing decoded may alias the buffer it was read from.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(appendRequest(nil, fullRequest()))
	old, _ := oldSuccList()
	f.Add(old)
	f.Add(appendRequest(nil, &Request{}))
	f.Add(appendRequest(nil, &Request{Op: OpPut, Key: 3, Value: []byte("v")}))
	f.Add(appendRequest(nil, &Request{Op: OpFindOwner, Key: 3, Value: []byte("v"), Carry: OpPut}))
	f.Add([]byte{binKindRequest})
	f.Add([]byte{binKindRequest, 1, 255, 255, 255})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 16; i++ {
		f.Add(appendRequest(nil, randomRequest(rng)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		var addrs addrTable
		buf := bytes.Clone(data)
		if err := decodeRequest(buf, &req, &addrs); err != nil {
			return
		}
		enc := appendRequest(nil, &req)
		scribble(buf)
		if after := appendRequest(nil, &req); !bytes.Equal(enc, after) {
			t.Fatalf("decoded request changed with its input buffer:\nbefore: %x\nafter:  %x", enc, after)
		}
		var again Request
		if err := decodeRequest(enc, &again, &addrs); err != nil {
			t.Fatalf("re-decode of re-encoded request failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeReq(&req), normalizeReq(&again)) || !bytes.Equal(appendRequest(nil, &again), enc) {
			t.Fatalf("re-encode not stable:\n1st: %+v\n2nd: %+v", &req, &again)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the response decoder.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(appendResponse(nil, fullResponse()))
	old, _ := oldSuccListAnswer()
	f.Add(old)
	f.Add(appendResponse(nil, &Response{}))
	f.Add(appendResponse(nil, &Response{OK: true, Value: []byte("x"), Found: true}))
	f.Add(appendResponse(nil, &Response{Err: "not owner", Owner: PeerRef{Addr: "z:3", Key: 4}}))
	for _, resp := range arcAnswers() {
		f.Add(appendResponse(nil, resp))
	}
	oldCarried, _ := oldCarriedAnswer()
	f.Add(oldCarried)
	f.Add([]byte{binKindResponse})
	f.Add([]byte{binKindResponse, 4, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		var addrs addrTable
		buf := bytes.Clone(data)
		if err := decodeResponse(buf, &resp, &addrs); err != nil {
			return
		}
		enc := appendResponse(nil, &resp)
		scribble(buf)
		if after := appendResponse(nil, &resp); !bytes.Equal(enc, after) {
			t.Fatalf("decoded response changed with its input buffer:\nbefore: %x\nafter:  %x", enc, after)
		}
		var again Response
		if err := decodeResponse(enc, &again, &addrs); err != nil {
			t.Fatalf("re-decode of re-encoded response failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeResp(&resp), normalizeResp(&again)) || !bytes.Equal(appendResponse(nil, &again), enc) {
			t.Fatalf("re-encode not stable:\n1st: %+v\n2nd: %+v", &resp, &again)
		}
	})
}

// scribble overwrites b, as the next frame overwrites a reused read buffer.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xAA
	}
}

// TestDecodeInternAllocs: through readMuxFrame, a put request carrying
// From costs one allocation, its value, and a put answer carrying a
// two-peer chain one, its Peers slice. The op comes from the table of
// protocol ops, the addresses from the connection's table once it holds
// them, and the fields of a response decode without allocating; all of
// that converted or allocated per frame, 3 and 6 allocations. An unknown
// op still decodes, to a string of its own.
func TestDecodeInternAllocs(t *testing.T) {
	f := acquireFrame()
	defer releaseFrame(f)
	frame := func(v interface{}) []byte {
		t.Helper()
		if err := f.encode(1, v); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(f.bytes())
	}
	put := frame(&Request{Op: OpPut, Key: 3, Value: bytes.Repeat([]byte("v"), 100), From: PeerRef{Addr: "127.0.0.1:40123", Key: 5}})
	answer := frame(&Response{OK: true, Acks: 1, Peers: []PeerRef{{Addr: "127.0.0.1:40124", Key: 1}, {Addr: "127.0.0.1:40125", Key: 2}}})
	odd := frame(&Request{Op: "frobnicate", Carry: "twiddle"})

	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	var addrs addrTable
	read := func(b []byte, v interface{}) {
		src.Reset(b)
		br.Reset(src)
		if _, err := readMuxFrame(br, v, &addrs); err != nil {
			t.Fatal(err)
		}
	}
	var req Request
	if n := testing.AllocsPerRun(100, func() { req = Request{}; read(put, &req) }); n > 1 {
		t.Errorf("a put request from a known peer costs %v allocations, want 1", n)
	}
	if req.Op != OpPut || req.From.Addr != "127.0.0.1:40123" || len(req.Value) != 100 {
		t.Errorf("put decoded as %+v", req)
	}
	var resp Response
	if n := testing.AllocsPerRun(100, func() { resp = Response{}; read(answer, &resp) }); n > 1 {
		t.Errorf("a put answer naming a known chain costs %v allocations, want 1", n)
	}
	if !resp.OK || resp.Acks != 1 || len(resp.Peers) != 2 || resp.Peers[1].Addr != "127.0.0.1:40125" {
		t.Errorf("answer decoded as %+v", resp)
	}
	req = Request{}
	read(odd, &req)
	if req.Op != "frobnicate" || req.Carry != "twiddle" {
		t.Errorf("unknown ops decoded as %q, %q", req.Op, req.Carry)
	}
}

// TestDecodeInternBounded: a connection that decodes 10,000 distinct
// addresses keeps at most maxInternedAddrs of them, and decodes every one
// right, also those that arrive after its table filled up.
func TestDecodeInternBounded(t *testing.T) {
	f := acquireFrame()
	defer releaseFrame(f)
	var addrs addrTable
	for i := 0; i < 10000; i++ {
		want := Addr(fmt.Sprintf("10.%d.%d.1:7000", i/256, i%256))
		if err := f.encode(uint64(i), &Response{OK: true, Peer: PeerRef{Addr: want, Key: 1}}); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if _, err := readMuxFrame(bufio.NewReader(bytes.NewReader(f.bytes())), &resp, &addrs); err != nil {
			t.Fatal(err)
		}
		if resp.Peer.Addr != want {
			t.Fatalf("address %d decoded as %q, want %q", i, resp.Peer.Addr, want)
		}
		if len(addrs.m) > maxInternedAddrs {
			t.Fatalf("after %d addresses the table holds %d, over its bound of %d", i+1, len(addrs.m), maxInternedAddrs)
		}
	}
}

// TestUvarintLen pins the field-length arithmetic of the one-pass encoder
// against what binary.AppendUvarint writes, at every width boundary.
func TestUvarintLen(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
				t.Fatalf("uvarintLen(%d) = %d, want %d", v, got, want)
			}
		}
	}
	if got := uvarintLen(math.MaxUint64); got != binary.MaxVarintLen64 {
		t.Fatalf("uvarintLen(max) = %d", got)
	}
}
