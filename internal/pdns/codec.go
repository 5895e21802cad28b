package pdns

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Format selects the on-disk encoding of a PDNS dataset.
type Format int

const (
	// JSONL encodes one JSON object per line (self-describing, slower).
	JSONL Format = iota
	// TSV encodes tab-separated columns in schema order (compact, fast):
	// fqdn, rtype, rdata, first_seen(unix), last_seen(unix), request_cnt, pdate.
	TSV
)

// Writer streams records to an io.Writer in the chosen format.
type Writer struct {
	bw     *bufio.Writer
	format Format
	n      int64
	buf    []byte // reusable TSV line scratch (Write and WriteBatch)
}

// NewWriter wraps w. Call Flush when done.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), format: format}
}

// Write appends one record.
func (w *Writer) Write(r *Record) error {
	w.n++
	switch w.format {
	case JSONL:
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("pdns: encode: %w", err)
		}
		if _, err := w.bw.Write(b); err != nil {
			return err
		}
		return w.bw.WriteByte('\n')
	case TSV:
		return w.writeTSV(r.FQDN, r.RType, r.RData,
			r.FirstSeen.Unix(), r.LastSeen.Unix(), r.RequestCnt, r.PDate)
	default:
		return fmt.Errorf("pdns: unknown format %d", w.format)
	}
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams records from an io.Reader.
//
// By default a malformed line is a hard error, which suits trusted local
// files. Real feeds carry garbage, so Quarantine switches the reader to
// skip-and-count: bad lines are dropped, tallied (and obs-counted when
// Instrument was called), and ingestion continues — aborting only when the
// malformed fraction blows the error budget, because a feed that is mostly
// garbage signals an upstream schema break, not line noise.
type Reader struct {
	sc     *bufio.Scanner
	format Format
	line   int

	quarantine bool
	maxErrRate float64
	scanned    int64
	skipped    int64
	streamErr  error
	mSkipped   *obs.Counter    // pdns_reader_quarantined_total
	mQuarVec   *obs.CounterVec // pdns_quarantined_total{shard,reason}
	shard      string
}

// quarantineGrace is how many lines a quarantining reader ingests before it
// starts enforcing the error budget; a tiny prefix of bad lines should not
// abort a billion-line feed.
const quarantineGrace = 100

// ErrErrorBudget is returned (wrapped) when a quarantining reader's
// malformed fraction exceeds its budget.
var ErrErrorBudget = errors.New("pdns: malformed-line budget exceeded")

// NewReader wraps r.
func NewReader(r io.Reader, format Format) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &Reader{sc: sc, format: format}
}

// Quarantine switches the reader to skip-and-count mode with the given
// error budget: ingestion aborts with ErrErrorBudget only once more than
// maxErrRate of scanned lines were malformed (after a short grace period).
// A non-positive rate defaults to 5%. Returns the reader for chaining.
func (r *Reader) Quarantine(maxErrRate float64) *Reader {
	if maxErrRate <= 0 {
		maxErrRate = 0.05
	}
	r.quarantine = true
	r.maxErrRate = maxErrRate
	return r
}

// Instrument counts quarantined lines in reg as pdns_reader_quarantined_total.
func (r *Reader) Instrument(reg *obs.Registry) *Reader {
	r.mSkipped = reg.Counter("pdns_reader_quarantined_total")
	return r
}

// InstrumentShard is Instrument plus the dimensional quarantine stream:
// each skipped line also lands in pdns_quarantined_total{shard,reason},
// where reason classifies the decode failure (columns, json, field-rtype,
// field-pdate, ...). Shard is the caller's partition label.
func (r *Reader) InstrumentShard(reg *obs.Registry, shard string) *Reader {
	r.Instrument(reg)
	r.mQuarVec = reg.CounterVec("pdns_quarantined_total", "shard", "reason")
	r.shard = shard
	return r
}

// Skipped returns how many malformed lines were quarantined.
func (r *Reader) Skipped() int64 { return r.skipped }

// StreamErr returns the underlying stream error a quarantining reader
// tolerated at end of input (e.g. a truncated gzip member), nil if the
// stream ended cleanly.
func (r *Reader) StreamErr() error { return r.streamErr }

// Read returns the next record, or io.EOF at end of stream. In quarantine
// mode malformed lines are skipped (see Quarantine) and an underlying
// stream error — a truncated gzip transfer — ends the stream early with
// io.EOF instead of failing the ingest; StreamErr reports it.
func (r *Reader) Read(rec *Record) error {
	for {
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				if r.quarantine {
					r.streamErr = err
					return io.EOF
				}
				return err
			}
			return io.EOF
		}
		r.line++
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		r.scanned++
		var err error
		switch r.format {
		case JSONL:
			err = json.Unmarshal(line, rec)
		case TSV:
			err = parseTSV(string(line), rec)
		default:
			return fmt.Errorf("pdns: unknown format %d", r.format)
		}
		if err == nil {
			return nil
		}
		if !r.quarantine {
			return fmt.Errorf("pdns: line %d: %w", r.line, err)
		}
		r.skipped++
		r.mSkipped.Inc()
		if r.mQuarVec != nil {
			r.mQuarVec.With(r.shard, quarantineReason(r.format, err)).Inc()
		}
		if r.scanned > quarantineGrace &&
			float64(r.skipped) > r.maxErrRate*float64(r.scanned) {
			return fmt.Errorf("pdns: line %d: %d/%d lines malformed (budget %.1f%%): %w",
				r.line, r.skipped, r.scanned, r.maxErrRate*100, ErrErrorBudget)
		}
	}
}

var errColumns = errors.New("wrong column count")

// quarantineReason classifies a decode failure into a bounded label set:
// "columns" (TSV arity), "json" (JSONL decode), or "field-<name>" for a TSV
// field that failed to parse (parseTSV wraps errors with the field name).
func quarantineReason(format Format, err error) string {
	if errors.Is(err, errColumns) {
		return "columns"
	}
	if format == JSONL {
		return "json"
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, ':'); i > 0 {
		return "field-" + msg[:i]
	}
	return "decode"
}

func parseTSV(line string, rec *Record) error {
	// Manual split avoids the allocation of strings.Split for the hot path.
	var cols [7]string
	n := 0
	for n < 6 {
		i := strings.IndexByte(line, '\t')
		if i < 0 {
			return errColumns
		}
		cols[n], line = line[:i], line[i+1:]
		n++
	}
	cols[6] = line
	rec.FQDN = cols[0]
	rt, err := strconv.Atoi(cols[1])
	if err != nil {
		return fmt.Errorf("rtype: %w", err)
	}
	rec.RType = RType(rt)
	rec.RData = cols[2]
	fs, err := strconv.ParseInt(cols[3], 10, 64)
	if err != nil {
		return fmt.Errorf("first_seen: %w", err)
	}
	ls, err := strconv.ParseInt(cols[4], 10, 64)
	if err != nil {
		return fmt.Errorf("last_seen: %w", err)
	}
	rec.FirstSeen = time.Unix(fs, 0).UTC()
	rec.LastSeen = time.Unix(ls, 0).UTC()
	rec.RequestCnt, err = strconv.ParseInt(cols[5], 10, 64)
	if err != nil {
		return fmt.Errorf("request_cnt: %w", err)
	}
	pd, err := strconv.Atoi(cols[6])
	if err != nil {
		return fmt.Errorf("pdate: %w", err)
	}
	rec.PDate = Date(pd)
	return nil
}

// CopyAll streams every record from r into fn, stopping on the first error.
// It returns the number of records processed.
func CopyAll(r *Reader, fn func(*Record) error) (int64, error) {
	var rec Record
	var n int64
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		if err := fn(&rec); err != nil {
			return n, err
		}
	}
}
