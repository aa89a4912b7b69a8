package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment files. The log is a sequence of segments named
// seg-00000001.wal, seg-00000002.wal, … in a data directory; only the
// highest-numbered segment is ever appended to. Each opens with an
// 8-byte header:
//
//	[4]byte  magic    "DKFL"
//	uint8    version  (segmentVersion)
//	[3]byte  reserved (zero)
//
// so a file that is not a WAL segment — or one written by an
// incompatible future version — is rejected before any record is
// trusted.
//
// A rotation creates the next segment as seg-<n>.wal.tmp and renames it
// to its segment name only once the segment before it is sealed, so the
// directory never shows a segment after one whose tail a power loss could
// still tear. Open deletes a leftover .tmp: nothing in it was durable.

// segMagic opens every segment file ("DKF Log").
var segMagic = [4]byte{'D', 'K', 'F', 'L'}

const (
	segmentVersion   = 1
	segmentHeaderLen = 8
	segPrefix        = "seg-"
	segSuffix        = ".wal"
	pendingSuffix    = ".tmp"
)

// segmentName renders the file name of segment idx.
func segmentName(idx int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix)
}

// pendingName renders the file name segment idx has until the segment
// before it is sealed.
func pendingName(idx int) string { return segmentName(idx) + pendingSuffix }

// parseSegmentName extracts the index from a segment file name, or
// ok=false for unrelated files.
func parseSegmentName(name string) (idx int, ok bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	n, err := strconv.Atoi(mid)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the indices of every segment in dir, ascending,
// and the names of any pending (not yet published) segment files.
func listSegments(dir string) (idxs []int, pending []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if idx, ok := parseSegmentName(e.Name()); ok {
			idxs = append(idxs, idx)
		} else if _, ok := parseSegmentName(strings.TrimSuffix(e.Name(), pendingSuffix)); ok {
			pending = append(pending, e.Name())
		}
	}
	sort.Ints(idxs)
	return idxs, pending, nil
}

// segmentHeader renders the 8-byte header.
func segmentHeader() []byte {
	h := make([]byte, segmentHeaderLen)
	copy(h, segMagic[:])
	h[4] = segmentVersion
	return h
}

// checkSegmentHeader validates the 8 header bytes.
func checkSegmentHeader(h []byte) error {
	if len(h) < segmentHeaderLen || [4]byte(h[:4]) != segMagic {
		return fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if h[4] != segmentVersion {
		return fmt.Errorf("wal: segment version %d, this build reads %d", h[4], segmentVersion)
	}
	return nil
}

// scanSegment reads the records of the segment at path from byte offset
// from (past the header) on, calling fn(tag, payload) for each (valid
// during the call). tail selects the torn-write policy: the last (tail)
// segment may legitimately end mid-record after a crash, so its first
// invalid record ends the scan and its byte offset is returned as
// validLen for the caller to truncate to; any earlier segment was sealed
// by a rotation and an invalid record in it is hard corruption.
//
// A short header on an empty tail file (crash between create and header
// write) is reported as validLen 0.
func scanSegment(path string, tail bool, from int64, fn func(tag byte, payload []byte) error) (validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	hdr := make([]byte, segmentHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		if tail && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			return 0, nil
		}
		return 0, fmt.Errorf("%w: short segment header in %s", ErrCorrupt, filepath.Base(path))
	}
	if err := checkSegmentHeader(hdr); err != nil {
		return 0, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, err
	}

	br := bufio.NewReaderSize(f, 1<<16)
	valid := from
	var buf []byte
	for {
		tag, payload, nextBuf, rerr := readRecord(br, buf)
		buf = nextBuf
		switch {
		case rerr == nil:
			if fn != nil {
				if err := fn(tag, payload); err != nil {
					return valid, err
				}
			}
			valid += recordOverhead + int64(len(payload))
		case errors.Is(rerr, io.EOF):
			return valid, nil
		case errors.Is(rerr, errTornTail), errors.Is(rerr, ErrCorrupt):
			if tail {
				// Crash mid-append: everything before this record is
				// intact; the caller truncates the rest away.
				return valid, nil
			}
			return valid, fmt.Errorf("%s: %w", filepath.Base(path), rerr)
		default:
			return valid, rerr
		}
	}
}

// syncDir fsyncs the directory itself so segment creation, removal and
// checkpoint renames survive a power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
