package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// readBufSize is the read buffer of every connection: bufio.NewReader's
// default, the bound between decoding a frame in place and reading it into
// a buffer of its own.
const readBufSize = 4096

// encodeFrame returns one whole frame (header and payload) for v.
func encodeFrame(t testing.TB, id uint64, v interface{}) []byte {
	t.Helper()
	f := acquireFrame()
	defer releaseFrame(f)
	if err := f.encode(id, v); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(f.bytes())
}

// scanPage is the scan-insert workload's page: items values of 100 B with
// consecutive keys, the answer to one scan call.
func scanPage(items int) *Response {
	page := make([]storage.Item, items)
	for i := range page {
		page[i] = storage.Item{Key: keyspace.Key(i + 1), Value: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	return pageResponse(page)
}

// oneOverReadBuf is a put of fill bytes whose frame is exactly one byte
// larger than the read buffer: the smallest frame that is read into a
// buffer of its own.
func oneOverReadBuf(t *testing.T, fill byte) *Request {
	req := &Request{Op: OpPut, Key: 5, From: PeerRef{Addr: "10.0.0.2:7000", Key: 6}}
	for size := readBufSize; ; {
		req.Value = bytes.Repeat([]byte{fill}, size)
		n := len(encodeFrame(t, 0, req))
		if n == readBufSize+1 {
			return req
		}
		size += readBufSize + 1 - n
	}
}

// repairAnswer is a read-repair pull's answer: the per-key states of the
// buckets that differ and a few values, so its values are a small part of
// its frame.
func repairAnswer(states, items int) *Response {
	resp := &Response{OK: true, States: make([]antientropy.State, states)}
	for i := range resp.States {
		resp.States[i] = antientropy.State{Key: keyspace.Key(i + 1), Hash: uint64(i)}
	}
	for i := 0; i < items; i++ {
		resp.Items = append(resp.Items, storage.Item{Key: keyspace.Key(i + 1), Value: bytes.Repeat([]byte{'r'}, 100)})
	}
	return resp
}

// adjacent reports whether b starts where a ends: values copied out of a
// frame sit back to back, values kept in it are parted by keys and
// lengths.
func adjacent(a, b []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(a)))+uintptr(len(a)) == uintptr(unsafe.Pointer(unsafe.SliceData(b)))
}

// decodeAlone decodes one frame's payload as a message of v's kind with
// the copying decoders, from a clone: what a frame means, whichever path
// reads it.
func decodeAlone(frame []byte, v interface{}) error {
	payload := bytes.Clone(frame[frameHeaderSize:])
	if req, ok := v.(*Request); ok {
		return decodeRequest(payload, req, nil)
	}
	return decodeResponse(payload, v.(*Response), nil)
}

// overwriteReader fills r's buffer with junk, as the frames after the last
// one read would.
func overwriteReader(r *bufio.Reader) {
	r.Reset(bytes.NewReader(bytes.Repeat([]byte{0xAA}, readBufSize)))
	_, _ = r.Peek(readBufSize)
}

// TestFrameValuesOutliveReader: small requests and responses, two frames
// of 4 KiB + 1 and a carried 4096 × 100 B page (Owner and Arc set), read back
// to back through one 4 KiB reader, each decode to what a standalone decode
// of a clone gives, and still do once the whole stream has been read and
// both its source and the reader's buffer are overwritten: a small frame's
// values are copied out of the reused buffer, a large frame's stay in a
// buffer nothing reuses, unless they are a small part of it (a repair
// answer of 2000 states and two values). Reading the page allocates its
// frame and its Items slice, nothing per value.
func TestFrameValuesOutliveReader(t *testing.T) {
	page := scanPage(4096)
	page.Owner, page.Arc = PeerRef{Addr: "127.0.0.1:7000", Key: 4}, keyspace.Range{Start: 1, End: 5}
	msgs := []interface{}{
		&Request{Op: OpGet, Key: 1, From: PeerRef{Addr: "10.0.0.1:7000", Key: 2}},
		&Response{OK: true, Found: true, Value: []byte("small value")},
		oneOverReadBuf(t, 'w'),
		&Response{OK: true, Items: []storage.Item{{Key: 3, Value: []byte("tiny page")}}},
		page,
		&Request{Op: OpReplicate, Items: []storage.Item{{Key: 4, Value: []byte("after the page")}}},
		&Response{OK: true, Value: bytes.Repeat([]byte("z"), 300)},
		oneOverReadBuf(t, 'x'), // the size of frame 2: it would get frame 2's buffer back from a pool
		repairAnswer(2000, 2),
	}
	var stream []byte
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		frames[i] = encodeFrame(t, uint64(i+1), m)
		stream = append(stream, frames[i]...)
	}
	if n := len(frames[2]); n != readBufSize+1 {
		t.Fatalf("the frame meant to be 4 KiB + 1 is %d bytes", n)
	}

	br := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
	var addrs addrTable
	got := make([]interface{}, len(msgs))
	for i, m := range msgs {
		got[i] = reflect.New(reflect.TypeOf(m).Elem()).Interface()
		id, err := readMuxFrame(br, got[i], &addrs)
		if err != nil || id != uint64(i+1) {
			t.Fatalf("frame %d: id %d, %v", i, id, err)
		}
	}
	scribble(stream)
	overwriteReader(br)
	for i, m := range msgs {
		want := reflect.New(reflect.TypeOf(m).Elem()).Interface()
		if err := decodeAlone(frames[i], want); err != nil {
			t.Fatalf("frame %d alone: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("frame %d (%T) changed once the stream was read and overwritten", i, m)
		}
	}
	if v := got[4].(*Response).Items[4095].Value; cap(v) != len(v) {
		t.Errorf("a page value kept in its frame has room for %d bytes past its end", cap(v)-len(v))
	}
	if items := got[4].(*Response).Items; adjacent(items[0].Value, items[1].Value) {
		t.Error("the page's values were copied out of their frame")
	}
	if items := got[8].(*Response).Items; !adjacent(items[0].Value, items[1].Value) {
		t.Error("a repair answer's two values stayed in a frame of 2000 states, which they would pin")
	}

	src := bytes.NewReader(nil)
	var resp Response
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(frames[4])
		br.Reset(src)
		resp = Response{}
		if _, err := readMuxFrame(br, &resp, &addrs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("reading a 4096-item page allocates %v times, want at most 2: its frame and its Items", allocs)
	}
}

// splitFrames cuts data into the whole frames it starts with, each one
// [4-byte length][8-byte id][payload]; a trailing partial frame is left
// out.
func splitFrames(data []byte) [][]byte {
	var frames [][]byte
	for len(data) >= frameHeaderSize {
		size := frameHeaderSize + int(binary.BigEndian.Uint32(data))
		if size > len(data) {
			break
		}
		frames = append(frames, data[:size])
		data = data[size:]
	}
	return frames
}

// frameKind is the message a frame holds, by its kind byte: a request or,
// for anything else, a response.
func frameKind(frame []byte) interface{} {
	if len(frame) > frameHeaderSize && frame[frameHeaderSize] == binKindRequest {
		return new(Request)
	}
	return new(Response)
}

// FuzzFrameStream fuzzes readMuxFrame over a stream of frames read through
// one 4 KiB reader, below and above the size it decodes in place: a frame
// that decodes must decode as the copying decoders decode a clone of its
// payload, one that does not must fail there too, and what decoded must
// stay the same once the rest of the stream has been read and the input
// and the reader's buffer have been overwritten.
func FuzzFrameStream(f *testing.F) {
	page := scanPage(64)
	page.Owner, page.Arc = PeerRef{Addr: "127.0.0.1:7000", Key: 4}, keyspace.Range{Start: 1, End: 5}
	seeds := [][]interface{}{
		{fullRequest(), fullResponse()},
		{&Request{Op: OpPut, Key: 3, Value: bytes.Repeat([]byte("v"), 5000)}, &Response{OK: true}},
		{&Request{Op: OpPing}, page, &Response{OK: true, Value: []byte("x"), Found: true}},
		{&Response{OK: true, Items: []storage.Item{{Key: 1, Value: make([]byte, 4200)}, {Key: 2, Value: []byte{}}}}, fullRequest()},
	}
	for _, msgs := range seeds {
		var stream []byte
		for i, m := range msgs {
			stream = append(stream, encodeFrame(f, uint64(i), m)...)
		}
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := splitFrames(data)
		stream := bytes.Join(frames, nil)
		br := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
		var addrs addrTable
		got := make([]interface{}, len(frames))
		enc := make([][]byte, len(frames))
		for i, fr := range frames {
			v := frameKind(fr)
			_, err := readMuxFrame(br, v, &addrs)
			want := frameKind(fr)
			if werr := decodeAlone(fr, want); (err == nil) != (werr == nil) {
				t.Fatalf("frame %d: read %v, decoded alone %v", i, err, werr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("frame %d read as %+v, decodes alone as %+v", i, v, want)
			}
			got[i], enc[i] = v, encodeFrame(t, 0, v)
		}
		scribble(stream)
		overwriteReader(br)
		for i, v := range got {
			if v != nil && !bytes.Equal(encodeFrame(t, 0, v), enc[i]) {
				t.Fatalf("frame %d changed once the stream was read and overwritten", i)
			}
		}
	})
}
