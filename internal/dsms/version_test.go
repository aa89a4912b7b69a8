package dsms

import (
	"net/netip"
	"testing"

	"streamkf/internal/dsms/wire"
	"streamkf/internal/netsim"
	"streamkf/internal/telemetry"
)

// TestV2PeerRefused: from version 3 the constant and linear models settle
// a suppressed run's covariance steps in closed form (kalman/owed.go). A
// v2 source runs the old recursion, so its mirror would lose synchrony
// with the server at its first gap of two or more readings, and nothing
// would say so. Both transports refuse its preamble instead.
func TestV2PeerRefused(t *testing.T) {
	const v2 = 2
	t.Run("tcp", func(t *testing.T) {
		ts := startServer(t, NewServer(testCatalog()))
		conn, _, r := rawClient(t, ts.Addr())
		if err := writePreamble(conn, v2, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		expectErrorFrame(t, r, "unsupported protocol version 2")
	})
	t.Run("udp", func(t *testing.T) {
		q := udpQuery()
		ups := makeUpdates(t, q, udpData())
		s, ts := newUDPPair(t, q)
		for i := range ups {
			dg, err := wire.AppendUpdateFrame(wire.AppendPreamble(nil, v2, 0), &ups[i])
			if err != nil {
				t.Fatal(err)
			}
			ts.processDatagram(dg, netip.AddrPort{})
		}
		ts.eng.Quiesce()
		versionErrs, _ := s.Telemetry().Get("dkf_wire_errors_total", telemetry.L("kind", "version"))
		if bad := s.Streamz().Engine.DatagramsBad; bad != int64(len(ups)) || versionErrs != float64(len(ups)) {
			t.Fatalf("%d v2 datagrams: %d rejected, %v version errors", len(ups), bad, versionErrs)
		}
		if _, err := s.Answer(q.ID, ups[0].Seq); err == nil {
			t.Fatal("a v2 bootstrap was applied")
		}
		deliver(t, ts, ups, netsim.Link{}.Schedule(len(ups))) // the same updates at v3 apply
		assertSameState(t, nodeSnapshot(t, s, q.SourceID), nodeSnapshot(t, refServer(t, q, ups), q.SourceID))
	})
}
