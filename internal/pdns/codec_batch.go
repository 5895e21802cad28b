package pdns

import (
	"fmt"
	"strconv"
)

// DefaultBatchRows is the batch size the streaming paths use when the
// caller does not pick one. Large enough to amortise per-batch overhead,
// small enough that a batch of seven 8-byte columns stays cache-friendly.
const DefaultBatchRows = 4096

// WriteBatch appends every row of b. For TSV it renders each line into the
// writer's reusable scratch buffer — no per-record string allocation; the
// bytes are identical to per-record Write calls. JSONL goes through the
// scalar encoder (it is the self-describing, slower format by contract).
func (w *Writer) WriteBatch(b *RecordBatch) error {
	switch w.format {
	case TSV:
		for i, n := 0, b.Len(); i < n; i++ {
			w.n++
			if err := w.writeTSV(b.Syms.Lookup(b.FQDN[i]), b.RType[i], b.Syms.Lookup(b.RData[i]),
				b.FirstSeen[i], b.LastSeen[i], b.RequestCnt[i], b.PDate[i]); err != nil {
				return err
			}
		}
		return nil
	case JSONL:
		var rec Record
		for i, n := 0, b.Len(); i < n; i++ {
			b.At(i, &rec)
			if err := w.Write(&rec); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("pdns: unknown format %d", w.format)
	}
}

// writeTSV renders one TSV line into the reusable scratch buffer.
func (w *Writer) writeTSV(fqdn string, t RType, rdata string, firstUnix, lastUnix, cnt int64, pdate Date) error {
	buf := w.buf[:0]
	buf = append(buf, fqdn...)
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, int64(t), 10)
	buf = append(buf, '\t')
	buf = append(buf, rdata...)
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, firstUnix, 10)
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, lastUnix, 10)
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, cnt, 10)
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, int64(pdate), 10)
	buf = append(buf, '\n')
	w.buf = buf
	_, err := w.bw.Write(buf)
	return err
}
