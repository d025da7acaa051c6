package server

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/shard"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, Key: 42},
		{Op: OpPut, Key: 1, Val: ^uint64(0)},
		{Op: OpDel, Key: 0},
		{Op: OpStats},
		{Op: OpSync},
		{Op: OpCrash, Key: uint64(7)},
		{Op: OpMGet, Keys: []uint64{1, 2, ^uint64(0)}},
		{Op: OpMPut, Keys: []uint64{9, 8}, Vals: []uint64{90, 80}},
		{Op: OpMDel, Keys: []uint64{5}},
		{Op: OpScan, Key: 10, Val: ^uint64(0), Limit: 512, Cursor: 99},
	}
	for _, want := range cases {
		p, err := EncodeRequest(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %+v → %+v", want, got)
		}
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	oversized, _ := EncodeRequest(nil, Request{Op: OpMDel, Keys: make([]uint64, MaxBatchOps)})
	for _, p := range [][]byte{
		nil,
		{99},                                  // unknown op
		{OpGet},                               // missing key
		{OpPut, 0, 0, 0, 0, 0, 0, 0, 0},       // missing value
		append([]byte{OpStats}, 1),            // trailing bytes
		{OpMGet},                              // zero batch ops
		{OpMGet, 1, 2, 3},                     // ragged batch payload
		{OpMPut, 0, 0, 0, 0, 0, 0, 0, 0},      // MPUT key without value
		append(oversized, make([]byte, 8)...), // MaxBatchOps + 1
		append([]byte{OpScan}, make([]byte, 24)...), // SCAN missing its cursor field
	} {
		if _, err := DecodeRequest(p); err == nil {
			t.Errorf("DecodeRequest(%v) accepted garbage", p[:min(len(p), 12)])
		}
	}
}

func TestEncodeRequestRejectsBadBatches(t *testing.T) {
	for _, req := range []Request{
		{Op: OpMGet}, // empty
		{Op: OpMPut, Keys: []uint64{1, 2}, Vals: []uint64{1}}, // ragged
		{Op: OpMDel, Keys: make([]uint64, MaxBatchOps+1)},     // oversized
	} {
		if _, err := EncodeRequest(nil, req); err == nil {
			t.Errorf("EncodeRequest(%+v) accepted a bad batch", req.Op)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 9000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %x → %x", want, got)
		}
		scratch = got
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf, nil); err == nil {
		t.Fatal("ReadFrame accepted a 4 GB frame header")
	}
}

// startServer boots a server over a fresh 2-shard set and returns its
// address. Cleanup tears the network down and abandons the set.
func startServer(t *testing.T, dir string, shards int) (*Server, string) {
	t.Helper()
	set, err := shard.Create(dir, shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		set.Abandon()
	})
	return srv, srv.Addr().String()
}

func TestServerBasicOps(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, ok, err := c.Get(5); err != nil || ok {
		t.Fatalf("get absent = %v, %v", ok, err)
	}
	if err := c.Put(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(5); err != nil || !ok || v != 50 {
		t.Fatalf("get 5 = (%d,%v,%v), want (50,true,nil)", v, ok, err)
	}
	if ok, err := c.Del(5); err != nil || !ok {
		t.Fatalf("del 5 = %v, %v", ok, err)
	}
	if ok, err := c.Del(5); err != nil || ok {
		t.Fatalf("del absent = %v, %v", ok, err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards != 2 || st.Puts != 1 || st.Gets+st.FastGets != 2 || st.Dels != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerBatchOps(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = k * 100
	}
	if err := c.MPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	gotVals, found, err := c.MGet([]uint64{3, 99, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || gotVals[0] != 300 || found[1] || !found[2] || gotVals[2] != 700 {
		t.Fatalf("MGET = %v / %v", gotVals, found)
	}
	present, err := c.MDel([]uint64{2, 99, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || present[1] || !present[2] {
		t.Fatalf("MDEL presence = %v", present)
	}
	if _, ok, _ := c.Get(2); ok {
		t.Fatal("key 2 survived MDEL")
	}
	if v, ok, _ := c.Get(1); !ok || v != 100 {
		t.Fatal("key 1 lost")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 8 || st.Gets+st.FastGets != 5 || st.Dels != 3 {
		t.Fatalf("stats after batches = %+v", st)
	}
	if st.FastGets == 0 {
		t.Fatalf("GET/MGET never took the read fast path: %+v", st)
	}
	if st.Batches == 0 || st.BatchedOps < 8 {
		t.Fatalf("no group commits recorded: %+v", st)
	}
	// A batch larger than the shard group window still works (split into
	// several group commits server-side).
	big := make([]uint64, 1000)
	bigV := make([]uint64, 1000)
	for i := range big {
		big[i] = 1000 + uint64(i)
		bigV[i] = uint64(i)
	}
	if err := c.MPut(big, bigV); err != nil {
		t.Fatal(err)
	}
	gotVals, found, err = c.MGet(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := range big {
		if !found[i] || gotVals[i] != bigV[i] {
			t.Fatalf("big batch key %d = (%d,%v)", big[i], gotVals[i], found[i])
		}
	}
}

// rawConn is a hand-rolled connection past its HELLO, for frames the
// Client cannot emit by construction.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// dialRaw connects to addr and completes the HELLO handshake by hand.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	hello, _ := EncodeRequest(nil, Request{Op: OpHello, Key: HelloMagic, Val: ProtocolV2})
	if err := WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	r := &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
	p, err := ReadFrame(r.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, _ := DecodeResponse(p); status != StatusOK {
		t.Fatalf("HELLO answered with status %d", status)
	}
	return r
}

// roundTrip sends one request payload (its seq included) and returns the
// reply's echoed seq and status.
func (r *rawConn) roundTrip(payload []byte) (uint64, uint8) {
	r.t.Helper()
	if err := WriteFrame(r.conn, payload); err != nil {
		r.t.Fatal(err)
	}
	p, err := ReadFrame(r.br, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	seq, status, _, err := DecodeResponseSeq(p)
	if err != nil {
		r.t.Fatal(err)
	}
	return seq, status
}

func TestServerRejectsMalformedFrame(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)
	r := dialRaw(t, addr)
	bad := appendU64(nil, 7)
	bad = append(bad, 99, 1, 2, 3)
	if seq, status := r.roundTrip(bad); seq != 7 || status != StatusErr {
		t.Fatalf("malformed frame answered seq %d status %d, want seq 7 StatusErr", seq, status)
	}
	// The server answers good requests on the same connection afterwards.
	put, _ := EncodeRequestSeq(nil, 8, Request{Op: OpPut, Key: 1, Val: 2})
	if seq, status := r.roundTrip(put); seq != 8 || status != StatusOK {
		t.Fatalf("put after bad frame: seq %d status %d", seq, status)
	}
}

func TestClientAfterClose(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, 1); err == nil {
		t.Fatal("Put on closed client succeeded")
	}
}
