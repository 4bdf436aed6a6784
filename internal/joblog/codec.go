package joblog

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// Wire format of one WAL record, little-endian throughout:
//
//	frame   := length(u32) crc(u32) payload
//	payload := magic(0xA7) version(0x01) seq(u64)
//	           jobID(i64) year(i32) perf(f64) slowest(f64)
//	           appLen(u16) app[appLen]
//	           ncounters(u8 = 45) counter[45](f64)
//
// length counts the payload bytes only; crc is CRC-32C (Castagnoli) over
// the payload. The job hash that makes appends idempotent is SHA-256
// truncated to 128 bits over the payload with the seq field zeroed, so a
// client retry — same job, new sequence number — hashes identically.

const (
	payloadMagic   = 0xA7
	payloadVersion = 0x01

	frameHeaderLen = 8 // length + crc
	seqOffset      = 2 // payload offset of the seq field

	// maxAppLen bounds the executable-name field; Darshan truncates real
	// exe paths far below this.
	maxAppLen = 4096
	// MaxPayloadLen is the largest payload the decoder accepts. A frame
	// whose length field exceeds it cannot be trusted to frame the stream
	// and is treated as a torn tail, not a record.
	MaxPayloadLen = 2 + 8 + 8 + 4 + 8 + 8 + 2 + maxAppLen + 1 + int(darshan.NumCounters)*8
)

// castagnoli is the CRC-32C table shared by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodePayload appends the payload encoding of (seq, rec) to dst.
// The app name is truncated at maxAppLen bytes; everything else is exact.
func encodePayload(dst []byte, seq uint64, rec *darshan.Record) []byte {
	app := rec.App
	if len(app) > maxAppLen {
		app = app[:maxAppLen]
	}
	dst = append(dst, payloadMagic, payloadVersion)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.JobID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(rec.Year)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.PerfMiBps))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.SlowestSeconds))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(app)))
	dst = append(dst, app...)
	dst = append(dst, byte(darshan.NumCounters))
	for _, v := range rec.Counters {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodePayload decodes one payload. It is the fuzz surface: any byte
// string it accepts must round-trip through encodePayload, and no byte
// string may make it panic.
func decodePayload(p []byte) (seq uint64, rec *darshan.Record, err error) {
	if len(p) < 2 {
		return 0, nil, fmt.Errorf("joblog: payload too short (%d bytes)", len(p))
	}
	if p[0] != payloadMagic {
		return 0, nil, fmt.Errorf("joblog: bad payload magic 0x%02X", p[0])
	}
	if p[1] != payloadVersion {
		return 0, nil, fmt.Errorf("joblog: unsupported payload version %d", p[1])
	}
	// Fixed-size prefix through appLen.
	const fixed = 2 + 8 + 8 + 4 + 8 + 8 + 2
	if len(p) < fixed {
		return 0, nil, fmt.Errorf("joblog: truncated payload header (%d bytes)", len(p))
	}
	seq = binary.LittleEndian.Uint64(p[2:])
	rec = &darshan.Record{
		JobID:          int64(binary.LittleEndian.Uint64(p[10:])),
		Year:           int(int32(binary.LittleEndian.Uint32(p[18:]))),
		PerfMiBps:      math.Float64frombits(binary.LittleEndian.Uint64(p[22:])),
		SlowestSeconds: math.Float64frombits(binary.LittleEndian.Uint64(p[30:])),
	}
	appLen := int(binary.LittleEndian.Uint16(p[38:]))
	if appLen > maxAppLen {
		return 0, nil, fmt.Errorf("joblog: app name length %d exceeds %d", appLen, maxAppLen)
	}
	rest := p[fixed:]
	if len(rest) < appLen+1 {
		return 0, nil, fmt.Errorf("joblog: truncated app name (want %d bytes, have %d)", appLen, len(rest))
	}
	rec.App = string(rest[:appLen])
	rest = rest[appLen:]
	if n := int(rest[0]); n != int(darshan.NumCounters) {
		return 0, nil, fmt.Errorf("joblog: payload carries %d counters, schema has %d", n, darshan.NumCounters)
	}
	rest = rest[1:]
	if len(rest) != int(darshan.NumCounters)*8 {
		return 0, nil, fmt.Errorf("joblog: counter block is %d bytes, want %d", len(rest), int(darshan.NumCounters)*8)
	}
	for i := range rec.Counters {
		rec.Counters[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return seq, rec, nil
}

// hashKey is the idempotency key of a payload: SHA-256 truncated to 128
// bits. A non-keyed 64-bit hash would make a collision — and therefore a
// silently swallowed job — constructible; at 128 bits the birthday bound
// for the paper's 6.6 M-job scale (~2^23 records) is ~2^-82, a residual
// risk we accept and document rather than pay a payload comparison on
// every duplicate hit.
type hashKey [16]byte

// payloadHash hashes a payload with the seq field zeroed, so the same job
// re-sent under a new sequence number (a client retry after a lost ack)
// collides with the original.
func payloadHash(p []byte) hashKey {
	h := sha256.New()
	var zeros [8]byte
	if len(p) >= seqOffset+8 {
		h.Write(p[:seqOffset])
		h.Write(zeros[:])
		h.Write(p[seqOffset+8:])
	} else {
		h.Write(p)
	}
	var k hashKey
	copy(k[:], h.Sum(nil))
	return k
}

// appendFrame appends the framed payload (length, CRC-32C, payload) to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// frameResult classifies what parseFrame found at the head of buf.
type frameResult int

const (
	// frameOK: a complete frame with a matching checksum.
	frameOK frameResult = iota
	// frameTorn: the bytes cannot be a complete frame — too short for the
	// header, a length field past MaxPayloadLen or zero, or fewer payload
	// bytes than the length promises. The stream is unframeable from here.
	frameTorn
	// frameCorrupt: a complete, plausibly-framed record whose checksum
	// does not match. The frame boundary is still trustworthy, so the
	// scanner can quarantine the payload and continue at the next frame.
	frameCorrupt
)

// parseFrame examines the frame at the head of buf and returns its
// classification, the payload bytes (valid for frameOK and frameCorrupt),
// and the total frame size consumed.
func parseFrame(buf []byte) (res frameResult, payload []byte, size int) {
	if len(buf) < frameHeaderLen {
		return frameTorn, nil, 0
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n == 0 || n > MaxPayloadLen {
		return frameTorn, nil, 0
	}
	if len(buf) < frameHeaderLen+n {
		return frameTorn, nil, 0
	}
	payload = buf[frameHeaderLen : frameHeaderLen+n]
	want := binary.LittleEndian.Uint32(buf[4:])
	if crc32.Checksum(payload, castagnoli) != want {
		return frameCorrupt, payload, frameHeaderLen + n
	}
	return frameOK, payload, frameHeaderLen + n
}
