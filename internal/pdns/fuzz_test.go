package pdns

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"testing"
)

// FuzzTSVReader checks that arbitrary input never panics the TSV parser and
// that every successfully parsed record re-encodes and re-parses to itself.
func FuzzTSVReader(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("bad line\n")
	f.Add("\t\t\t\t\t\t\n")
	f.Add("a\t1\tb\tx\ty\tz\tw\n")
	// Quarantine-path seeds: a line the writer died on mid-record, and a
	// torn-gzip garbage prefix glued to a healthy line.
	f.Add("f.on.aws\t1\t1.2.")
	f.Add("\x1f\x8b\x00\xfff.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Fuzz(func(t *testing.T, line string) {
		r := NewReader(bytes.NewBufferString(line), TSV)
		var rec Record
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				return
			}
			if err != nil {
				return // malformed input is rejected, never panics
			}
			var buf bytes.Buffer
			w := NewWriter(&buf, TSV)
			if err := w.Write(&rec); err != nil {
				t.Fatalf("re-encode of parsed record failed: %v", err)
			}
			w.Flush()
			var rec2 Record
			if err := NewReader(&buf, TSV).Read(&rec2); err != nil {
				t.Fatalf("re-parse failed: %v (line %q)", err, buf.String())
			}
			if rec2.FQDN != rec.FQDN || rec2.RequestCnt != rec.RequestCnt || rec2.PDate != rec.PDate {
				t.Fatalf("round trip changed record: %+v vs %+v", rec, rec2)
			}
		}
	})
}

// FuzzBatchTSVRoundTrip reads arbitrary bytes with the scalar reader in
// quarantine mode and re-encodes every delivered record twice — per-record
// through Write and as one batch through WriteBatch, pdnsgen's writer — and
// requires the two encodings to be byte-identical.
func FuzzBatchTSVRoundTrip(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\njunk\nf.on.aws\t5\tx\t0\t0\t0\t0\n")
	f.Add("a\t1\tb\tx\ty\tz\tw\n")
	f.Add("f\t+1\tr\t-5\t-5\t0\t-1\n")
	f.Add("f\t99999999999999999999\tr\t0\t0\t0\t0\n") // overflowing rtype is quarantined
	f.Add("f.on.aws\t1\t1.2.")
	f.Fuzz(func(t *testing.T, input string) {
		r := NewReader(bytes.NewBufferString(input), TSV).Quarantine(0.99)
		var delivered []Record
		var rec Record
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrErrorBudget) {
					t.Fatalf("hard failure in quarantine mode: %v", err)
				}
				break // re-encode the prefix delivered before the budget blew
			}
			delivered = append(delivered, rec)
		}

		var sbuf, bbuf bytes.Buffer
		sw := NewWriter(&sbuf, TSV)
		for i := range delivered {
			if err := sw.Write(&delivered[i]); err != nil {
				t.Fatal(err)
			}
		}
		sw.Flush()
		batch := NewRecordBatch(len(delivered))
		for i := range delivered {
			batch.AppendRecord(&delivered[i])
		}
		bw := NewWriter(&bbuf, TSV)
		if err := bw.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if !bytes.Equal(sbuf.Bytes(), bbuf.Bytes()) {
			t.Fatalf("re-encode diverged:\n%q\nvs\n%q", bbuf.String(), sbuf.String())
		}
	})
}

// FuzzQuarantineReader checks that a quarantining reader never panics and
// never hard-fails on arbitrary input: every outcome is a delivered record,
// a quarantined line, or a blown error budget — nothing else.
func FuzzQuarantineReader(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n")
	f.Add("f.on.aws\t1\t1.2.") // half-written line, writer died mid-record
	f.Add("\x1f\x8b\x00\xffgarbage\n")
	f.Add("junk\njunk\njunk\n")
	f.Fuzz(func(t *testing.T, input string) {
		r := NewReader(bytes.NewBufferString(input), TSV).Quarantine(0.5)
		var rec Record
		var delivered int64
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrErrorBudget) {
					t.Fatalf("quarantining reader hard-failed: %v", err)
				}
				return
			}
			delivered++
		}
		if r.StreamErr() != nil {
			t.Fatalf("in-memory stream reported a stream error: %v", r.StreamErr())
		}
		_ = delivered
	})
}

// FuzzQuarantineTruncatedGzip compresses the input, cuts the stream at an
// arbitrary point, and checks a quarantining reader ends with a clean EOF and
// the truncation surfaced via StreamErr rather than a hard failure.
func FuzzQuarantineTruncatedGzip(f *testing.F) {
	f.Add("f.on.aws\t1\t1.2.3.4\t1650000000\t1650000600\t12\t19083\n", 10)
	f.Add("junk\n", 3)
	f.Fuzz(func(t *testing.T, line string, cut int) {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		for i := 0; i < 50; i++ {
			gz.Write([]byte(line))
		}
		gz.Close()
		if cut < 0 {
			cut = -cut
		}
		if n := buf.Len(); n > 0 {
			cut = cut % n
		}
		gzr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()[:cut]))
		if err != nil {
			return // header itself truncated; OpenFile rejects this upfront
		}
		r := NewReader(gzr, TSV).Quarantine(0.99)
		var rec Record
		for {
			err := r.Read(&rec)
			if err == io.EOF {
				return
			}
			if err != nil && !errors.Is(err, ErrErrorBudget) {
				t.Fatalf("truncated gzip hard-failed a quarantining reader: %v", err)
			}
			if err != nil {
				return
			}
		}
	})
}
