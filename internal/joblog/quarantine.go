package joblog

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/durable"
)

// Operator access to the quarantine log (`aiio quarantine`). The log is
// append-only text — one header line per entry followed by the hex payload
// — written by quarantine(); this file is its reader: list entries, decode
// the ones that still frame as records, and purge the log once an operator
// has dealt with them.

// QuarantineEntry is one preserved bad record.
type QuarantineEntry struct {
	// Index is the entry's position in the log (the `aiio quarantine show
	// -n` handle), 0-based in quarantine order.
	Index int `json:"index"`
	// TimeUnix is when the record was quarantined.
	TimeUnix int64 `json:"time_unix"`
	// Bytes is the preserved payload length (0 for parse-reject notes,
	// which have no recoverable record).
	Bytes int `json:"bytes"`
	// Reason is why the record was refused (CRC mismatch at recovery,
	// ingest validation failure, parse reject).
	Reason string `json:"reason"`
	// Payload is the preserved raw payload (nil for notes).
	Payload []byte `json:"-"`
}

// Record decodes the preserved payload back into the job record it was
// before quarantine. Entries quarantined for CRC damage may no longer
// decode; notes (no payload) never do.
func (e *QuarantineEntry) Record() (seq uint64, rec *darshan.Record, err error) {
	if len(e.Payload) == 0 {
		return 0, nil, fmt.Errorf("joblog: quarantine entry %d holds no payload", e.Index)
	}
	return decodePayload(e.Payload)
}

// parseQuarantineHeader parses one `# quarantined time=T bytes=B reason=Q`
// line. Malformed headers return ok=false and are surfaced as opaque
// entries rather than hiding log damage.
func parseQuarantineHeader(line string) (t int64, n int, reason string, ok bool) {
	rest, found := strings.CutPrefix(line, "# quarantined ")
	if !found {
		return 0, 0, "", false
	}
	ti := strings.Index(rest, "time=")
	bi := strings.Index(rest, " bytes=")
	ri := strings.Index(rest, " reason=")
	if ti != 0 || bi < 0 || ri < bi {
		return 0, 0, "", false
	}
	t, err1 := strconv.ParseInt(rest[len("time="):bi], 10, 64)
	n, err2 := strconv.Atoi(rest[bi+len(" bytes=") : ri])
	reason, err3 := strconv.Unquote(rest[ri+len(" reason="):])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, "", false
	}
	return t, n, reason, true
}

// Quarantine reads every entry in the quarantine log, oldest first. An
// empty (or absent) log returns an empty slice.
func (s *Store) Quarantine() ([]QuarantineEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return readQuarantine(filepath.Join(s.dir, quarantineDir, quarantineLog))
}

// ReadQuarantine reads a joblog directory's quarantine entries without
// opening (and therefore recovering) the whole store — safe against a
// joblog another process is serving from.
func ReadQuarantine(dir string) ([]QuarantineEntry, error) {
	return readQuarantine(filepath.Join(dir, quarantineDir, quarantineLog))
}

func readQuarantine(path string) ([]QuarantineEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("joblog: open quarantine log: %w", err)
	}
	defer f.Close()
	var entries []QuarantineEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4*(MaxPayloadLen*2+64))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# quarantined ") {
			continue // payload line without a pending header, or damage
		}
		e := QuarantineEntry{Index: len(entries)}
		var ok bool
		if e.TimeUnix, e.Bytes, e.Reason, ok = parseQuarantineHeader(line); !ok {
			e.Reason = "unparseable quarantine header: " + line
		}
		// The payload line follows the header; a truncated tail (crash
		// mid-quarantine-write) leaves the entry with no payload.
		if sc.Scan() {
			if raw, derr := hex.DecodeString(sc.Text()); derr == nil {
				e.Payload = raw
			}
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("joblog: read quarantine log: %w", err)
	}
	return entries, nil
}

// PurgeQuarantine removes every quarantined entry, returning how many were
// dropped. The live quarantine counter (Stats().Quarantined) resets with
// it; the recovery report keeps its historical numbers.
func (s *Store) PurgeQuarantine() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, quarantineDir, quarantineLog)
	n := countQuarantine(path)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("joblog: purge quarantine log: %w", err)
	}
	durable.SyncDir(filepath.Join(s.dir, quarantineDir))
	s.quarantined = 0
	return n, nil
}
