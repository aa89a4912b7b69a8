//go:build !linux || (!amd64 && !arm64)

// Portable datagram I/O fallback: one ReadFromUDPAddrPort per receive
// (a batch of exactly 1) and one Write per sealed datagram. Platforms
// with batched syscalls get udp_linux.go instead; the reader above this
// layer is identical either way, so the server and the batcher behave
// the same everywhere — only the syscalls-per-datagram ratio differs.
package dsms

import (
	"net"
	"net/netip"
)

// rxBatch is 1: a read returns one datagram.
const rxBatch = 1

// recvBatch is the reader's receive state: a single datagram buffer.
type recvBatch struct {
	conn *net.UDPConn
	buf  []byte
	n    int
	from netip.AddrPort
}

func newRecvBatch(conn *net.UDPConn, batch, maxDatagram int) (*recvBatch, error) {
	return &recvBatch{conn: conn, buf: make([]byte, maxDatagram)}, nil
}

// read blocks for one datagram and reports a batch of 1.
func (rx *recvBatch) read() (int, error) {
	n, addr, err := rx.conn.ReadFromUDPAddrPort(rx.buf)
	if err != nil {
		return 0, err
	}
	rx.n, rx.from = n, addr
	return 1, nil
}

func (rx *recvBatch) msg(i int) []byte          { return rx.buf[:rx.n] }
func (rx *recvBatch) addr(i int) netip.AddrPort { return rx.from }

// batchTx degrades to a write per datagram.
type batchTx struct{ conn *net.UDPConn }

func newBatchTx(conn *net.UDPConn) (*batchTx, error) {
	return &batchTx{conn: conn}, nil
}

func (tx *batchTx) sendAll(pkts [][]byte) error {
	for _, p := range pkts {
		if _, err := tx.conn.Write(p); err != nil {
			return err
		}
	}
	return nil
}
