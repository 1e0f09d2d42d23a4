package transport

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// update rewrites goldenFile from the encoder instead of comparing
// against it, keeping its comment lines: go test -run TestWireGolden
// -update.
var update = flag.Bool("update", false, "rewrite the golden record instead of comparing")

// goldenFile holds the wire bytes of every goldenFrames entry, one
// "name hex" line each, as the encoder wrote them before any of its
// rewrites. A change that moves one byte of them is a wire change.
const goldenFile = "testdata/wire_golden.txt"

// goldenPage is a scan page of n items whose values are size bytes long,
// except every seventh, which is empty, and every eleventh, which is long
// enough to need a two-byte length.
func goldenPage(n, size int) []storage.Item {
	items := make([]storage.Item, n)
	for i := range items {
		vlen := size
		switch {
		case i%7 == 3:
			vlen = 0
		case i%11 == 5:
			vlen = 200
		}
		v := make([]byte, vlen)
		for j := range v {
			v[j] = byte(i*31 + j)
		}
		items[i] = storage.Item{Key: keyspace.Key(uint64(i+1) * 0x9e3779b97f4a7c15), Value: v}
	}
	return items
}

// goldenFrame is one named Request or Response.
type goldenFrame struct {
	name string
	msg  interface{}
}

// goldenFrames lists the frames TestWireGolden pins: each counted-slice
// field, a scan page, and a carried scan page larger than 16 KiB, which
// the owner answers as one record, naming itself in Owner.
func goldenFrames() []goldenFrame {
	peer := PeerRef{Addr: "10.0.0.7:7000", Key: keyspace.FromFloat(0.25)}
	succ := PeerRef{Addr: "10.0.0.8:7000", Key: keyspace.FromFloat(0.5)}
	return []goldenFrame{
		{"req-items", &Request{Op: OpReplicate, From: peer, Items: []storage.Item{
			{Key: 1, Value: []byte("a")}, {Key: 2, Value: []byte{}}, {Key: 3},
			{Key: keyspace.MaxKey, Value: bytes.Repeat([]byte{0xfe}, 130)},
		}}},
		{"req-tombs", &Request{Op: OpReplicateDel, Tombs: []storage.Tombstone{
			{Key: 9, At: -12345}, {Key: 10, At: 1}, {Key: 11, At: math.MaxInt64}, {Key: 12, At: math.MinInt64},
		}}},
		{"req-states", &Request{Op: OpSyncPull, States: []antientropy.State{
			{Key: 5, Hash: 0xdeadbeefcafef00d, Deleted: true}, {Key: 6, Hash: 1},
		}}},
		{"req-exclude", &Request{Op: OpFindOwner, Key: 77, Exclude: []Addr{"1.2.3.4:1", "", "[::1]:65535"}}},
		{"req-buckets", &Request{Op: OpDigest, Depth: 8, Buckets: []int{0, 1, -1, 255, 1 << 20, math.MinInt32}}},
		{"req-drop", &Request{Op: OpMigrate, Drop: []keyspace.Key{3, keyspace.MaxKey, 0}}},
		{"req-full", fullRequest()},
		{"resp-items", &Response{OK: true, Items: []storage.Item{{Key: 4, Value: []byte("v")}, {Key: 5, Value: []byte{}}}}},
		{"resp-tombs", &Response{OK: true, Tombs: []storage.Tombstone{{Key: 12, At: math.MaxInt64}, {Key: 13, At: -1}}}},
		{"resp-states", &Response{OK: true, States: []antientropy.State{{Key: 13, Hash: 2}, {Key: 14, Hash: math.MaxUint64, Deleted: true}}}},
		{"resp-peers", &Response{OK: true, Peers: []PeerRef{{Addr: "a:1", Key: 1}, {Addr: "", Key: 2}, {Addr: "b:2", Key: keyspace.MaxKey}}}},
		{"resp-digest", &Response{OK: true, Digest: []uint64{0, 1, math.MaxUint64}}},
		{"resp-full", fullResponse()},
		{"resp-scan-page", &Response{OK: true, Peer: peer, Items: goldenPage(130, 100), More: true}},
		{"resp-carried-page", &Response{OK: true, Peer: succ, Items: goldenPage(170, 100), More: true,
			Peers: []PeerRef{succ},
			Arc:   keyspace.Range{Start: keyspace.FromFloat(0.125), End: keyspace.FromFloat(0.25) + 1},
			Owner: peer,
		}},
	}
}

// encodeMsg is appendRequest or appendResponse, by the type of msg.
func encodeMsg(msg interface{}) []byte {
	if req, ok := msg.(*Request); ok {
		return appendRequest(nil, req)
	}
	return appendResponse(nil, msg.(*Response))
}

// TestWireGolden pins the encoder's bytes: every frame in goldenFrames must
// encode to exactly the hex recorded in goldenFile, and the recorded bytes
// must decode and re-encode to themselves. With -update it rewrites
// goldenFile instead.
func TestWireGolden(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	var comments strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		if strings.HasPrefix(name, "#") {
			comments.WriteString(sc.Text() + "\n")
			continue
		}
		if !ok {
			continue
		}
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	frames := goldenFrames()
	if *update {
		out := []byte(comments.String())
		for _, fr := range frames {
			out = append(out, fr.name+" "+hex.EncodeToString(encodeMsg(fr.msg))+"\n"...)
		}
		if err := os.WriteFile(goldenFile, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(frames) {
		t.Fatalf("%s holds %d frames, the table %d", goldenFile, len(want), len(frames))
	}
	for _, fr := range frames {
		w, ok := want[fr.name]
		if !ok {
			t.Errorf("%s: not in %s", fr.name, goldenFile)
			continue
		}
		got := encodeMsg(fr.msg)
		if !bytes.Equal(got, w) {
			i := 0
			for i < len(got) && i < len(w) && got[i] == w[i] {
				i++
			}
			t.Errorf("%s: %d bytes, want %d; first difference at byte %d", fr.name, len(got), len(w), i)
			continue
		}
		var again []byte
		if _, isReq := fr.msg.(*Request); isReq {
			var req Request
			err = decodeRequest(w, &req, nil)
			again = appendRequest(nil, &req)
		} else {
			var resp Response
			err = decodeResponse(w, &resp, nil)
			again = appendResponse(nil, &resp)
		}
		if err != nil || !bytes.Equal(again, w) {
			t.Errorf("%s: golden bytes do not decode and re-encode to themselves (err %v)", fr.name, err)
		}
	}
}
