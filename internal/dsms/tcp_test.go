package dsms

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"streamkf/internal/dsms/wire"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

// startServer spins up a TCP server on a random port and returns it with
// a cleanup hook.
func startServer(t *testing.T, s *Server) *TCPServer {
	t.Helper()
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ts.Serve() }()
	t.Cleanup(func() {
		ts.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ts
}

func TestTCPEndToEnd(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 3, Model: "linear"})
	ts := startServer(t, s)

	agent, err := DialSource(ts.Addr(), "walk", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	data := gen.Ramp(300, 0, 2, 0.05, 17)
	if err := agent.Run(stream.NewSliceSource(data)); err != nil {
		t.Fatal(err)
	}

	qc, err := DialQuery(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	last := data[len(data)-1]
	ans, err := qc.Ask("q1", last.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans[0]-last.Values[0]) > 6 {
		t.Fatalf("TCP answer %v, truth %v", ans[0], last.Values[0])
	}
	if st := agent.Stats(); st.Updates >= st.Readings {
		t.Fatalf("no suppression over TCP: %+v", st)
	}
}

func TestTCPHandshakeUnknownSource(t *testing.T) {
	catalog := testCatalog()
	ts := startServer(t, NewServer(catalog))
	if _, err := DialSource(ts.Addr(), "ghost", catalog); err == nil {
		t.Fatal("handshake succeeded for unregistered source")
	}
}

func TestTCPHandshakeUnknownModelClientSide(t *testing.T) {
	serverCatalog := testCatalog()
	s := NewServer(serverCatalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "s", Delta: 1, Model: "linear"})
	ts := startServer(t, s)
	// Client catalog lacking the model must fail the handshake cleanly.
	if _, err := DialSource(ts.Addr(), "s", NewCatalog()); err == nil {
		t.Fatal("handshake succeeded with client missing the model")
	}
}

func TestTCPQueryErrors(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	qc, err := DialQuery(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if _, err := qc.Ask("missing", 0); err == nil || !strings.Contains(err.Error(), "unknown query") {
		t.Fatalf("Ask on unknown query: %v", err)
	}
	// The connection must survive an error reply.
	if _, err := qc.Ask("missing", 1); err == nil {
		t.Fatal("second Ask should still reach the server")
	}
}

func TestTCPMultipleSourcesConcurrently(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		mustRegister(t, s, stream.Query{ID: "q-" + id, SourceID: id, Delta: 2, Model: "linear"})
	}
	ts := startServer(t, s)

	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			agent, err := DialSource(ts.Addr(), id, catalog)
			if err != nil {
				errs <- err
				return
			}
			defer agent.Close()
			errs <- agent.Run(stream.NewSliceSource(gen.Ramp(200, float64(i*100), 1.5, 0.05, int64(i))))
		}(i, id)
	}
	// Query clients hammer the server while the pipelined agents
	// stream. Asking at seq 0 never advances a filter past an in-flight
	// update, so this is safe concurrency, not a protocol violation.
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			qc, err := DialQuery(ts.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer qc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					// Errors are expected before a source bootstraps;
					// only a dead connection fails the test.
					if _, err := qc.Ask("q-"+id, 0); err != nil && strings.Contains(err.Error(), "receive") {
						t.Errorf("query conn died mid-stream: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	qwg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	qc, err := DialQuery(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for i, id := range ids {
		ans, err := qc.Ask("q-"+id, 199)
		if err != nil {
			t.Fatalf("query %s: %v", id, err)
		}
		want := float64(i*100) + 1.5*199
		if math.Abs(ans[0]-want) > 6 {
			t.Fatalf("source %s answer %v, want ~%v", id, ans[0], want)
		}
	}
	stats := s.Stats()
	if len(stats) != len(ids) {
		t.Fatalf("stats for %d sources, want %d", len(stats), len(ids))
	}
	for _, st := range stats {
		if st.Updates == 0 || st.Updates >= 200 {
			t.Fatalf("source %s degenerate update count %d", st.SourceID, st.Updates)
		}
	}
}

func TestTCPServerRejectsUnknownTag(t *testing.T) {
	ts := startServer(t, NewServer(testCatalog()))
	conn, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writePreamble(conn, wire.Version, 0); err != nil {
		t.Fatal(err)
	}
	// A well-formed frame with an unassigned tag.
	if _, err := conn.Write([]byte{1, 0, 0, 0, 0x7f}); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(conn, 0, 0)
	if _, _, err := r.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	tag, p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := wire.DecodeError(p)
	if tag != wire.TagError || !strings.Contains(msg, "unknown message tag") {
		t.Fatalf("reply = %v %q, want unknown-tag error", tag, msg)
	}
	// The connection must survive an unknown tag: a query still works
	// on the same conn (it errors on the unknown id, proving the server
	// processed it).
	w := wire.NewWriter(conn, 0, 0)
	if err := w.Query("missing", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tag, p, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	msg, _ = wire.DecodeError(p)
	if tag != wire.TagError || !strings.Contains(msg, "unknown query") {
		t.Fatalf("reply after unknown tag = %v %q, want unknown-query error", tag, msg)
	}
}
