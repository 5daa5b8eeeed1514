// Package repl ships committed transactions from a leader database to
// read-only followers: the leader tails its segmented WAL (wal.Tail)
// and streams the records — the same §6-composable units its own group
// commit produced — over a byte-stream transport; followers apply them
// through the engine's batch maintenance pipeline and publish their own
// COW snapshots, serving the leader's lock-free read path horizontally.
//
// The wire is a sequence of CRC-framed messages over any ordered byte
// stream (an HTTP chunked response body in production, an in-process
// pipe in tests and benchmarks):
//
//	u8 type | u32 payloadLen | payload | u32 crc32(type..payload)
//
// Three message types exist: records (the leader's durable high-water
// LSN, then a batch of WAL records, each re-framed as u64 LSN | u8 kind
// | u32 len | bytes — the high-water mark lets a busy follower measure
// its lag without waiting for an idle heartbeat), heartbeat (the
// leader's durable high-water LSN plus its clock, sent when the stream
// is idle so followers can measure lag), and gap (the records the
// follower needs were reclaimed by a checkpoint; it must re-sync from
// a fresh leader snapshot — the stream never silently skips LSNs).
package repl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"mview/internal/wal"
)

// Frame types.
const (
	frameRecords   uint8 = 1
	frameHeartbeat uint8 = 2
	frameGap       uint8 = 3
)

// maxFramePayload bounds one frame (64 MiB) so a corrupt length field
// cannot drive a giant allocation. Batches are soft-capped well below
// this by the server's BatchBytes.
const maxFramePayload = 64 << 20

const frameHeaderLen = 1 + 4
const frameCRCLen = 4

// writeFrame emits one framed message.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	buf := make([]byte, 0, frameHeaderLen+len(payload)+frameCRCLen)
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// readFrame reads and CRC-verifies one framed message. io.EOF at a
// frame boundary is a clean end of stream; any torn or corrupt frame is
// an error (the transport is expected to be reliable — corruption means
// a bug or a truncated proxy body, and the client reconnects).
func readFrame(r io.Reader) (uint8, []byte, error) {
	var header [frameHeaderLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("repl: torn frame header: %w", err)
		}
		return 0, nil, err
	}
	typ := header[0]
	plen := binary.BigEndian.Uint32(header[1:5])
	if plen > maxFramePayload {
		return 0, nil, fmt.Errorf("repl: frame payload %d exceeds limit", plen)
	}
	body := make([]byte, int(plen)+frameCRCLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("repl: torn frame body: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(header[:])
	crc.Write(body[:plen])
	if crc.Sum32() != binary.BigEndian.Uint32(body[plen:]) {
		return 0, nil, fmt.Errorf("repl: frame checksum mismatch")
	}
	return typ, body[:plen], nil
}

// recordsHeaderLen is the records payload header: u64 leader LSN, u32
// record count.
const recordsHeaderLen = 8 + 4

// encodeRecords packs a batch of WAL records into a records payload:
// u64 leaderLSN (the leader's durable high-water mark when the batch
// was read) | u32 count, then per record u64 LSN | u8 kind | u32 len |
// bytes.
func encodeRecords(leaderLSN uint64, recs []wal.Record) []byte {
	size := recordsHeaderLen
	for _, r := range recs {
		size += 8 + 1 + 4 + len(r.Payload)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, leaderLSN)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.BigEndian.AppendUint64(buf, r.LSN)
		buf = append(buf, r.Kind)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Payload)))
		buf = append(buf, r.Payload...)
	}
	return buf
}

// decodeRecords unpacks a records payload into the leader's
// high-water LSN and the records.
func decodeRecords(p []byte) (uint64, []wal.Record, error) {
	if len(p) < recordsHeaderLen {
		return 0, nil, fmt.Errorf("repl: short records payload (%d bytes)", len(p))
	}
	leaderLSN := binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	p = p[recordsHeaderLen:]
	// Every record takes at least its 13-byte header, so a count the
	// payload cannot hold is corrupt — refuse it before allocating.
	if uint64(n)*(8+1+4) > uint64(len(p)) {
		return 0, nil, fmt.Errorf("repl: records payload claims %d records in %d bytes", n, len(p))
	}
	recs := make([]wal.Record, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(p) < 8+1+4 {
			return 0, nil, fmt.Errorf("repl: truncated record %d", i)
		}
		lsn := binary.BigEndian.Uint64(p)
		kind := p[8]
		plen := binary.BigEndian.Uint32(p[9:13])
		p = p[13:]
		if uint32(len(p)) < plen {
			return 0, nil, fmt.Errorf("repl: truncated record %d payload", i)
		}
		recs = append(recs, wal.Record{LSN: lsn, Kind: kind, Payload: p[:plen:plen]})
		p = p[plen:]
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("repl: %d trailing bytes after records", len(p))
	}
	return leaderLSN, recs, nil
}

// Heartbeat reports the leader's durable position on an idle stream.
type Heartbeat struct {
	LastLSN  uint64 // leader's durable high-water LSN
	UnixNano int64  // leader's clock when sent
}

func encodeHeartbeat(h Heartbeat) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.BigEndian.AppendUint64(buf, h.LastLSN)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.UnixNano))
	return buf
}

func decodeHeartbeat(p []byte) (Heartbeat, error) {
	if len(p) != 16 {
		return Heartbeat{}, fmt.Errorf("repl: heartbeat payload length %d", len(p))
	}
	return Heartbeat{
		LastLSN:  binary.BigEndian.Uint64(p),
		UnixNano: int64(binary.BigEndian.Uint64(p[8:])),
	}, nil
}

// Gap tells a follower its resume position was reclaimed: the oldest
// retained LSN is Oldest (0 = nothing retained) and it must re-sync
// from a fresh snapshot.
type Gap struct {
	Oldest uint64
}

func encodeGap(g Gap) []byte {
	return binary.BigEndian.AppendUint64(nil, g.Oldest)
}

func decodeGap(p []byte) (Gap, error) {
	if len(p) != 8 {
		return Gap{}, fmt.Errorf("repl: gap payload length %d", len(p))
	}
	return Gap{Oldest: binary.BigEndian.Uint64(p)}, nil
}
