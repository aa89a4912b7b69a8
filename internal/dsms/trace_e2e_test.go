package dsms

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// traceKinds collects the set of kinds present in a trail.
func traceKinds(events []trace.EventView) map[string]bool {
	out := make(map[string]bool)
	for _, e := range events {
		out[e.Kind] = true
	}
	return out
}

// TestTraceE2EChain is the tentpole acceptance test: a traced source
// streams over TCP into a durable server, one reading violates δ, and
// the flight recorders on both ends must show the full causal chain —
// smooth, predict, decision, wire tx/rx, apply, WAL append, answer —
// stitched together by the trace id the wire frame carried, with the
// δ-violating reading standing out in the divergence audit.
func TestTraceE2EChain(t *testing.T) {
	const n, spikeAt, spike = 120, 100, 500.0
	catalog := testCatalog()
	s, err := Open(catalog, t.TempDir(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableTracing(trace.Options{})
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 1, F: 10, Model: "linear"})
	ts := startServer(t, s)
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	agent, err := DialSourceOptions(ts.Addr(), "walk", catalog, DialOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if !agent.wireTrace {
		t.Fatal("tracing server did not advertise the trace feature")
	}

	// A noiseless ramp the linear model locks onto, with one huge spike:
	// after lock-on readings suppress, the spike must transmit.
	data := gen.Ramp(n, 0, 2, 0, 1)
	data[spikeAt].Values[0] += spike
	spikeSeq := int64(data[spikeAt].Seq)
	for _, r := range data {
		if _, err := agent.Offer(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Answer("q1", data[n-1].Seq); err != nil {
		t.Fatal(err)
	}

	// Source side: the agent recorder holds the local half of the chain.
	rec := agent.Tracer()
	if rec == nil {
		t.Fatal("traced dial did not attach a recorder")
	}
	srcKinds := traceKinds(eventViews(rec.Events()))
	for _, want := range []string{"smooth", "predict", "decision", "wire_tx"} {
		if !srcKinds[want] {
			t.Errorf("source trail missing kind %q (have %v)", want, srcKinds)
		}
	}
	var spikeTx *trace.EventView
	for _, e := range eventViews(rec.Events()) {
		if e.Kind == "wire_tx" && e.Seq == spikeSeq {
			ev := e
			spikeTx = &ev
		}
	}
	if spikeTx == nil {
		t.Fatalf("δ-violating reading %d was not transmitted", spikeSeq)
	}

	// Server side, over HTTP: the full decision trail for the stream.
	code, body := adminGet(t, admin.Addr(), "/tracez/stream/walk")
	if code != http.StatusOK {
		t.Fatalf("/tracez/stream/walk status %d: %s", code, body)
	}
	var st StreamTrace
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/tracez/stream/walk: %v\n%s", err, body)
	}
	if !st.Enabled || st.SourceID != "walk" || st.Delta != 1 {
		t.Fatalf("stream trace header wrong: %+v", st)
	}
	srvKinds := traceKinds(st.Events)
	for _, want := range []string{"wire_rx", "decision", "apply", "wal", "answer"} {
		if !srvKinds[want] {
			t.Errorf("server trail missing kind %q (have %v)", want, srvKinds)
		}
	}

	// The causal chain: every stage of the spike's journey shares the
	// trace id minted at the source and carried by the wire frame.
	chain := make(map[string]trace.EventView)
	for _, e := range st.Events {
		if e.Seq == spikeSeq && e.TraceID == spikeTx.TraceID {
			chain[e.Kind] = e
		}
	}
	for _, want := range []string{"wire_rx", "decision", "apply", "wal"} {
		if _, ok := chain[want]; !ok {
			t.Errorf("spike seq %d trace %d missing server-side %q event", spikeSeq, spikeTx.TraceID, want)
		}
	}
	if d := chain["decision"]; d.Decision != "send" || d.Residual <= d.Delta {
		t.Errorf("spike decision evidence wrong: %+v", d)
	}
	if a := chain["apply"]; a.Residual <= 1 {
		t.Errorf("spike apply recorded innovation %v, want > δ", a.Residual)
	}
	if w := chain["wal"]; w.Aux <= 0 {
		t.Errorf("wal event did not record appended bytes: %+v", w)
	}

	// Divergence audit: the spike is the worst innovation on record, and
	// no transmitted update landed at or under δ (the mirrors never
	// desynchronized).
	if st.Audit.Applies == 0 {
		t.Fatal("audit observed no applies")
	}
	if st.Audit.MaxSeq != spikeSeq {
		t.Errorf("audit max divergence at seq %d, want the spike at %d", st.Audit.MaxSeq, spikeSeq)
	}
	if st.Audit.MaxOverDelta <= 1 {
		t.Errorf("audit max/δ = %v, want > 1 for a δ-violating spike", st.Audit.MaxOverDelta)
	}
	if st.Audit.UnderDeltaSends != 0 {
		t.Errorf("audit counted %d under-δ sends on a healthy mirror", st.Audit.UnderDeltaSends)
	}

	// /tracez filters: decision=send on this source returns only send
	// decisions, including the spike's.
	code, body = adminGet(t, admin.Addr(), "/tracez?source=walk&kind=decision&decision=send&limit=200")
	if code != http.StatusOK {
		t.Fatalf("/tracez status %d", code)
	}
	var tz struct {
		Enabled bool         `json:"enabled"`
		Events  []TraceEntry `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tz); err != nil {
		t.Fatalf("/tracez: %v\n%s", err, body)
	}
	if !tz.Enabled || len(tz.Events) == 0 {
		t.Fatalf("/tracez returned no send decisions: %s", body)
	}
	foundSpike := false
	for _, e := range tz.Events {
		if e.SourceID != "walk" || e.Kind != "decision" || e.Decision != "send" {
			t.Fatalf("/tracez filter leaked event %+v", e)
		}
		if e.Seq == spikeSeq {
			foundSpike = true
		}
	}
	if !foundSpike {
		t.Error("/tracez?decision=send does not include the spike")
	}
}

// eventViews converts recorder events to their JSON view shape so both
// ends of the chain are compared in the same vocabulary.
func eventViews(events []trace.Event) []trace.EventView {
	out := make([]trace.EventView, len(events))
	for i, e := range events {
		out[i] = e.View()
	}
	return out
}

// TestTraceCompatV2Peers pins wire compatibility in both directions: a
// tracing peer and a plain v2 peer must interoperate, with evidence
// sent only when the server advertised the feature.
func TestTraceCompatV2Peers(t *testing.T) {
	catalog := testCatalog()

	t.Run("traced-agent-plain-server", func(t *testing.T) {
		s := NewServer(catalog)
		mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 0.5, Model: "linear"})
		ts := startServer(t, s)
		agent, err := DialSourceOptions(ts.Addr(), "walk", catalog, DialOptions{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		if agent.wireTrace {
			t.Fatal("agent negotiated evidence against a non-tracing server")
		}
		if agent.Tracer() == nil {
			t.Fatal("local recorder must work even when the peer does not take evidence")
		}
		if err := agent.Run(stream.NewSliceSource(gen.Ramp(200, 0, 2, 0.3, 7))); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats()[0]; st.Updates == 0 {
			t.Fatal("no updates applied")
		}
		if !traceKinds(eventViews(agent.Tracer().Events()))["decision"] {
			t.Error("local trail empty despite tracing enabled at the agent")
		}
	})

	// A server from the TagTrace era advertises a retired bit — 0x01 (the
	// 65-byte frame) or 0x04 (the 73-byte one) — and would reject an
	// update with a trailer as malformed: the agent must read either bit
	// as "no tracing" and stay untraced. A TagTrace frame from such an
	// agent is an unknown tag to this server, answered as one.
	for name, bit := range map[string]byte{"retired-bit": 0x01, "retired-bit-0x04": 0x04} {
		t.Run("traced-agent-"+name+"-server", func(t *testing.T) {
			hold := make(chan struct{})
			defer close(hold)
			addr := fakeServer(t, func(conn net.Conn) {
				io.ReadFull(conn, make([]byte, 6)) // client preamble
				conn.Read(make([]byte, 64))        // its hello
				w := wire.NewWriter(conn, 0, 0)
				w.WritePreamble(wire.Version, bit)
				w.Install(wire.Install{SourceID: "walk", Model: "linear", Delta: 0.5, ResumeSeq: -1})
				w.Flush()
				<-hold
			})
			agent, err := DialSourceOptions(addr, "walk", catalog, DialOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			defer agent.Close()
			if agent.TraceNegotiated() {
				t.Fatalf("agent negotiated evidence on the retired %#02x feature bit", bit)
			}
		})
	}
	t.Run("retired-tag-tracing-server", func(t *testing.T) {
		s := NewServer(catalog)
		s.EnableTracing(trace.Options{})
		ts := startServer(t, s)
		conn, w, r := rawClient(t, ts.Addr())
		w.WritePreamble(wire.Version, 0x04)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, feats, err := r.ReadPreamble(); err != nil || feats&(0x01|0x04) != 0 {
			t.Fatalf("preamble feats %#02x, %v; want neither retired bit", feats, err)
		}
		if _, err := conn.Write(append([]byte{74, 0, 0, 0, 0x08}, make([]byte, 73)...)); err != nil {
			t.Fatal(err)
		}
		expectErrorFrame(t, r, "unknown message tag 0x08")
		if got := counter(t, s, "dkf_wire_errors_total", telemetry.L("kind", "unknown_tag")); got != 1 {
			t.Fatalf("unknown_tag errors = %d, want 1", got)
		}
	})

	t.Run("plain-agent-tracing-server", func(t *testing.T) {
		s := NewServer(catalog)
		s.EnableTracing(trace.Options{})
		mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 0.5, Model: "linear"})
		ts := startServer(t, s)
		agent, err := DialSource(ts.Addr(), "walk", catalog)
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		if err := agent.Run(stream.NewSliceSource(gen.Ramp(200, 0, 2, 0.3, 7))); err != nil {
			t.Fatal(err)
		}
		st, err := s.TraceStream("walk")
		if err != nil {
			t.Fatal(err)
		}
		kinds := traceKinds(st.Events)
		if !kinds["apply"] || !kinds["wire_rx"] {
			t.Fatalf("tracing server recorded no applies from a plain agent: %v", kinds)
		}
		// No evidence arrived, so the wire half of the chain is
		// anonymous: trace id 0, no decision events.
		for _, e := range st.Events {
			if e.Kind == "decision" {
				t.Fatalf("decision event without evidence: %+v", e)
			}
			if e.TraceID != 0 {
				t.Fatalf("nonzero trace id without evidence: %+v", e)
			}
		}
		if st.Audit.Applies == 0 {
			t.Fatal("divergence audit must run without evidence")
		}
	})
}

// TestTracezScrapeUnderLoad hammers /tracez and the per-stream trail
// while TCP agents stream in parallel — the recorder's seqlock contract
// under -race.
func TestTracezScrapeUnderLoad(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	s.EnableTracing(trace.Options{RingSize: 64})
	const workers = 3
	ids := [workers]string{"walk-0", "walk-1", "walk-2"}
	for _, id := range ids {
		mustRegister(t, s, stream.Query{ID: "q-" + id, SourceID: id, Delta: 0.05, Model: "linear"})
	}
	ts := startServer(t, s)
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	done := make(chan struct{})
	var ingest sync.WaitGroup
	for i, id := range ids {
		agent, err := DialSourceOptions(ts.Addr(), id, catalog, DialOptions{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		ingest.Add(1)
		go func(a *RemoteAgent, seed int64) {
			defer ingest.Done()
			if err := a.Run(stream.NewSliceSource(gen.Ramp(1500, 0, 2, 0.4, seed))); err != nil {
				t.Errorf("Run: %v", err)
			}
		}(agent, int64(11+i))
	}
	go func() {
		ingest.Wait()
		close(done)
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/tracez?limit=50", "/tracez/stream/walk-1"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if code, _ := adminGet(t, admin.Addr(), path); code != http.StatusOK {
					t.Errorf("GET %s: status %d", path, code)
					return
				}
			}
		}(path)
	}
	wg.Wait()
	<-done

	// After the dust settles every stream has a populated trail.
	for _, id := range ids {
		st, err := s.TraceStream(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Events) == 0 || st.Audit.Applies == 0 {
			t.Fatalf("stream %s has an empty trail after load: %d events, %d applies", id, len(st.Events), st.Audit.Applies)
		}
	}
}

// TestForwardRejectedEvidenceNotInherited pins, on a router's
// multiplexed upstream connection, that evidence belongs to the update
// that carries it: a traced forward for a released source A is rejected,
// and the next forward in the same run — untraced, a different source B,
// the same seq (every stream counts from 0, so the collision is the
// common case) — holds nothing of A's in its trail.
func TestForwardRejectedEvidenceNotInherited(t *testing.T) {
	const k = 1
	s := NewServer(testCatalog())
	s.EnableTracing(trace.Options{})
	for _, id := range []string{"A", "B"} {
		mustRegister(t, s, stream.Query{ID: "q" + id, SourceID: id, Delta: 1, Model: "linear"})
		if _, err := s.InstallFor(id); err != nil {
			t.Fatal(err)
		}
		if err := s.HandleUpdate(core.Update{SourceID: id, Seq: 0, Values: []float64{1}, Bootstrap: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.SnapshotSource("A", 2); err != nil { // A migrates away
		t.Fatal(err)
	}
	ts := startServer(t, s)

	_, w, r := rawClient(t, ts.Addr())
	if err := w.WritePreamble(wire.Version, wire.FeatCluster); err != nil {
		t.Fatal(err)
	}
	frame := func(id string, ev *trace.Event) []byte {
		return appendFrame(t, nil, core.Update{SourceID: id, Seq: k, Time: k, Values: []float64{5}}, ev)
	}
	d := trace.Event{TraceID: 77, Seq: k, Kind: trace.KindDecision, Dec: trace.DecisionSend, At: 1000, Raw: 5, Value: 5, Pred: 1, Residual: 4, Delta: 1}
	if err := w.Forward(0, 2, frame("A", &d)); err != nil {
		t.Fatal(err)
	}
	if err := w.Forward(1, 2, frame("B", nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, feats, err := r.ReadPreamble(); err != nil || feats&wire.FeatEvidence == 0 {
		t.Fatalf("preamble feats %#02x, %v; want the evidence bit", feats, err)
	}
	expectErrorFrame(t, r, "released from this shard")
	tag, p, err := r.Next()
	if err != nil || tag != wire.TagForwardAck {
		t.Fatalf("reply to B's forward = %v, %v; want a forward ack", tag, err)
	}
	if idx, seq, err := wire.DecodeForwardAck(p); err != nil || idx != 1 || seq != k {
		t.Fatalf("forward ack = idx %d seq %d, %v; want idx 1 seq %d", idx, seq, err, k)
	}

	st, err := s.TraceStream("B")
	if err != nil {
		t.Fatal(err)
	}
	kinds := traceKinds(st.Events)
	if !kinds["apply"] {
		t.Fatalf("B's forward was not applied: %v", kinds)
	}
	if kinds["decision"] {
		t.Errorf("B's trail inherited a decision event from A's rejected forward: %+v", st.Events)
	}
	for _, ev := range st.Events {
		if ev.TraceID == d.TraceID {
			t.Errorf("B's trail carries A's trace id: %+v", ev)
		}
	}
}
