package dsms

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
)

// rawClient opens a plain TCP connection with framing helpers, for
// driving the server off the happy path.
func rawClient(t *testing.T, addr string) (net.Conn, *wire.Writer, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, wire.NewWriter(conn, 0, 0), wire.NewReader(conn, 0, 0)
}

// writePreamble sends a preamble of any version straight to conn.
func writePreamble(conn net.Conn, version, features byte) error {
	_, err := conn.Write(wire.AppendPreamble(nil, version, features))
	return err
}

func expectErrorFrame(t *testing.T, r *wire.Reader, want string) {
	t.Helper()
	tag, p, err := r.Next()
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if tag != wire.TagError {
		t.Fatalf("tag = %v, want error frame", tag)
	}
	msg, err := wire.DecodeError(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, want) {
		t.Fatalf("error frame %q, want substring %q", msg, want)
	}
}

func TestTCPVersionMismatchRejected(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	conn, _, r := rawClient(t, ts.Addr())
	if err := writePreamble(conn, 99, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	expectErrorFrame(t, r, "unsupported protocol version")
	// The server hangs up after the rejection.
	if _, _, err := r.Next(); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("after version rejection: %v, want peer closed", err)
	}
}

func TestTCPBadMagicRejected(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	conn, _, r := rawClient(t, ts.Addr())
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// No preamble comes back — the peer is not speaking the protocol —
	// just a best-effort error frame, then the close.
	expectErrorFrame(t, r, "not speaking the streamkf wire protocol")
	if _, _, err := r.Next(); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("after magic rejection: %v, want peer closed", err)
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	conn, _, r := rawClient(t, ts.Addr())
	if err := writePreamble(conn, wire.Version, 0); err != nil {
		t.Fatal(err)
	}
	// Frame header announcing 2 MiB, beyond the 1 MiB default cap.
	hdr := []byte{0, 0, 32, 0, byte(wire.TagUpdate)}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	expectErrorFrame(t, r, "exceeds limit")
}

func TestTCPServerClosedMidStream(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 1e-9, Model: "constant"})
	ts := startServerNoWait(t, s)

	agent, err := DialSource(ts.Addr(), "walk", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	// Stream a little, then yank the server.
	for i := 0; i < 10; i++ {
		if _, err := agent.Offer(stream.Reading{Seq: i, Time: float64(i), Values: []float64{float64(i)}}); err != nil {
			t.Fatalf("offer %d before close: %v", i, err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// The failure is asynchronous: keep offering until it surfaces.
	deadline := time.Now().Add(5 * time.Second)
	var offerErr error
	for i := 10; time.Now().Before(deadline); i++ {
		if _, offerErr = agent.Offer(stream.Reading{Seq: i, Time: float64(i), Values: []float64{float64(i)}}); offerErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if offerErr == nil {
		t.Fatal("no error surfaced after server close")
	}
	if agent.Err() == nil {
		t.Fatal("sticky error not recorded")
	}
	// A clean server-side close is reported as such, distinguishable
	// from truncation. (A send into the dead socket may beat the read
	// of the EOF; both surface the shutdown.)
	if errors.Is(offerErr, core.ErrTruncated) {
		t.Fatalf("clean shutdown misreported as truncation: %v", offerErr)
	}
	if errors.Is(offerErr, core.ErrPeerClosed) && !strings.Contains(offerErr.Error(), "server closed connection") {
		t.Fatalf("peer-closed error lacks context: %v", offerErr)
	}
}

// startServerNoWait is startServer without the Serve-error assertion —
// for tests that close the server while clients are mid-flight.
func startServerNoWait(t *testing.T, s *Server) *TCPServer {
	t.Helper()
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ts.Serve() }()
	t.Cleanup(func() {
		ts.Close()
		<-done
	})
	return ts
}

// fakeServer runs fn on the first accepted connection.
func fakeServer(t *testing.T, fn func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
	return ln.Addr().String()
}

func TestTCPDialSourceServerSpeaksWrongVersion(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		writePreamble(conn, 42, 0)
		// Give the client a moment to read before the close.
		time.Sleep(50 * time.Millisecond)
	})
	_, err := DialSource(addr, "s", testCatalog())
	var ve *wire.VersionError
	if !errors.As(err, &ve) || ve.Got != 42 {
		t.Fatalf("dial against v42 server: %v, want VersionError", err)
	}
}

func TestTCPDialSourceTruncatedHandshake(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		writePreamble(conn, wire.Version, 0)
		// Absorb the client's preamble and hello: closing with them
		// unread would answer with RST, not the FIN this test is about.
		io.ReadFull(conn, make([]byte, 6))
		conn.Read(make([]byte, 64))
		// A frame header promising 50 bytes, then the connection dies.
		conn.Write([]byte{51, 0, 0, 0, byte(wire.TagInstall), 1, 2, 3})
	})
	_, err := DialSource(addr, "s", testCatalog())
	if !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("truncated handshake: %v, want core.ErrTruncated", err)
	}
}

// TestTCPDialSourceResetMidFrame is the same truncation delivered as a
// reset: the server aborts the connection (linger 0 sends RST) after
// part of a frame. The client must still report core.ErrTruncated.
func TestTCPDialSourceResetMidFrame(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		writePreamble(conn, wire.Version, 0)
		io.ReadFull(conn, make([]byte, 6))
		conn.Read(make([]byte, 64))
		conn.Write([]byte{51, 0, 0, 0, byte(wire.TagInstall), 1, 2, 3})
		// Let the partial frame reach the client before the abort.
		time.Sleep(50 * time.Millisecond)
		conn.(*net.TCPConn).SetLinger(0)
	})
	_, err := DialSource(addr, "s", testCatalog())
	if !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("reset mid-frame: %v, want core.ErrTruncated", err)
	}
}

func TestTCPDialSourceCleanClose(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		writePreamble(conn, wire.Version, 0)
		// Absorb the client's preamble and hello, as above: unread, they
		// turn the close into a RST about one run in twenty.
		io.ReadFull(conn, make([]byte, 6))
		conn.Read(make([]byte, 64))
	})
	_, err := DialSource(addr, "s", testCatalog())
	if !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("clean close during handshake: %v, want core.ErrPeerClosed", err)
	}
	if !strings.Contains(err.Error(), "server closed connection") {
		t.Fatalf("clean close lacks context: %v", err)
	}
}

func TestTCPQueryClientDistinguishesCloseFromTruncation(t *testing.T) {
	// Clean close after the preamble: ErrPeerClosed. The fake server
	// absorbs the query first so the client's write succeeds and the
	// failure is observed on the read side.
	addr := fakeServer(t, func(conn net.Conn) {
		writePreamble(conn, wire.Version, 0)
		io.ReadFull(conn, make([]byte, 6)) // client preamble
		conn.Read(make([]byte, 64))        // the query frame
	})
	qc, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if _, err := qc.Ask("q", 0); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("Ask after clean close: %v, want core.ErrPeerClosed", err)
	}

	// Partial frame then close: ErrTruncated.
	addr = fakeServer(t, func(conn net.Conn) {
		writePreamble(conn, wire.Version, 0)
		io.ReadFull(conn, make([]byte, 6))
		conn.Read(make([]byte, 64))
		conn.Write([]byte{99, 0, 0, 0, byte(wire.TagAnswer), 7})
	})
	qc2, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc2.Close()
	if _, err := qc2.Ask("q", 0); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("Ask over truncated frame: %v, want core.ErrTruncated", err)
	}
}

// TestTCPPipelinedServerError proves a server-side failure of a
// pipelined update is delivered asynchronously and fails a later Offer,
// per the protocol contract.
func TestTCPPipelinedServerError(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "src", Delta: 1e-9, Model: "constant"})
	ts := startServer(t, s)
	agent, err := DialSource(ts.Addr(), "src", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.Offer(stream.Reading{Seq: 0, Time: 0, Values: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	// Poison the server by advancing the filter past the next update's
	// sequence number, as a replayed advance record would: folding seq 1
	// after the prediction reached 100 is a protocol violation the server
	// reports per-update.
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	st := s.source("src")
	st.mu.Lock()
	st.node.AdvanceTo(100)
	st.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	var offerErr error
	for i := 1; time.Now().Before(deadline); i++ {
		if _, offerErr = agent.Offer(stream.Reading{Seq: i, Time: float64(i), Values: []float64{float64(i * 10)}}); offerErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if offerErr == nil || !strings.Contains(offerErr.Error(), "server error") {
		t.Fatalf("pipelined server failure = %v, want async server error", offerErr)
	}
	if err := agent.Drain(); err == nil {
		t.Fatal("Drain succeeded after server error")
	}
}

// TestTCPServeAcceptErrorWaitsForHandlers is the regression test for
// Serve's non-graceful error path: when the listener dies outside
// Close, Serve must close live connections and wait out their handler
// goroutines before returning, not abandon them mid-flight.
func TestTCPServeAcceptErrorWaitsForHandlers(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "src", Delta: 1e-9, Model: "constant"})
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ts.Serve() }()

	agent, err := DialSource(ts.Addr(), "src", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.Offer(stream.Reading{Seq: 0, Time: 0, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}

	// Kill the listener out from under Serve without Close: the next
	// Accept fails with closed=false — the non-graceful path.
	ts.ln.Close()
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("Serve returned nil for a listener failure outside Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the listener died")
	}
	// Serve's return must imply every handler goroutine has unwound:
	// each decrements the active-connections gauge in its defer.
	if v, ok := s.Telemetry().Get("dkf_wire_connections_active"); !ok || v != 0 {
		t.Fatalf("dkf_wire_connections_active = %v after Serve returned; handler goroutines leaked", v)
	}
}

// TestTCPForwardInnerFrameMalformed: a forward whose run holds a frame
// that is not an update, or one cut short, is a malformed frame like any
// other — an error frame, the hang-up, and none of the run applied, not
// even the whole update ahead of the bad frame.
func TestTCPForwardInnerFrameMalformed(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "fwd", Delta: 1, Model: "constant"})
	if _, err := s.InstallFor("fwd"); err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, s)
	good, err := wire.AppendUpdateFrame(nil, &core.Update{SourceID: "fwd", Seq: 0, Values: []float64{1}, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := wire.AppendHelloFrame(nil, "fwd")
	for name, frames := range map[string][]byte{
		"hello":             hello,
		"update then hello": append(append([]byte(nil), good...), hello...),
		"cut short":         good[:len(good)-2],
		"update then a cut": append(append([]byte(nil), good...), good[:len(good)-1]...),
	} {
		before := counter(t, s, "dkf_wire_errors_total", telemetry.L("kind", "malformed"))
		_, w, r := rawClient(t, ts.Addr())
		if err := w.WritePreamble(wire.Version, wire.FeatCluster); err != nil {
			t.Fatal(err)
		}
		if err := w.Forward(0, 1, frames); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		expectErrorFrame(t, r, "malformed")
		if tag, _, err := r.Next(); err == nil {
			t.Fatalf("%s: connection open after the error frame: read %v", name, tag)
		}
		if got := counter(t, s, "dkf_wire_errors_total", telemetry.L("kind", "malformed")); got != before+1 {
			t.Errorf("%s: %d malformed frames counted, want 1", name, got-before)
		}
		if st := s.Stats()[0]; st.Updates != 0 {
			t.Fatalf("%s: %d updates applied from a refused forward", name, st.Updates)
		}
	}
}
