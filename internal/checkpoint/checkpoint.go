// Package checkpoint is the pipeline's durability layer: a versioned,
// section-CRC'd binary snapshot of run progress that lets `scfpipe -resume`
// pick up a killed campaign and finish it with artifacts byte-identical to
// an uninterrupted run.
//
// A snapshot carries the completed-stage ledger plus the state that is
// expensive to recompute: the per-shard pdns.Aggregator frontier during
// emission (progress counters name how many functions of each shard are
// fully folded in — the resumed run re-emits only the tail by replaying the
// deterministic per-FQDN RNG streams), the merged Aggregate after the
// identify stage, the probe sweep's results, and the degradation counters
// the run had absorbed by then (so a resumed run reports them too — the
// stages it skips never replay their increments). Stages after probe are
// always recomputed on resume: they are cheap, pure functions of the
// restored state, so re-running them is both simpler and self-verifying.
//
// The file format is defensive by construction. Every section is framed as
// (name, length, payload, CRC32) and the file ends with a mandatory "end"
// trailer, so torn writes, truncation, and bit rot all decode to an error
// wrapping ErrCorrupt — never a panic (FuzzCheckpointDecode pins this).
// The header embeds the run ID (sha256 of the config), so a checkpoint can
// never be resumed under a different configuration: stale-config resumes
// fail with ErrMismatch instead of silently mixing two experiments.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"repro/internal/binio"
	"repro/internal/pdns"
	"repro/internal/probe"
)

const (
	magic   = "SCFCKPT1"
	version = 1

	// DirName is the checkpoint directory inside a run's archive slot:
	// <run-dir>/<run-id>/checkpoints/. Checkpoints deliberately live on the
	// machine-varying side of the archive — they describe one machine's
	// execution timeline, never the measurement.
	DirName = "checkpoints"
)

// Section names. Decoders skip unknown sections, so the format is
// forward-extensible without a version bump.
const (
	secHeader   = "head"
	secLedger   = "ledger"
	secEmission = "emit"
	secAgg      = "agg"
	secProbe    = "probe"
	secCounters = "counters"
	secEnd      = "end"
)

var (
	// ErrCorrupt reports a checkpoint file that is torn, truncated, or
	// otherwise undecodable. Resume falls back to the previous file.
	ErrCorrupt = errors.New("checkpoint: corrupt or truncated checkpoint")
	// ErrMismatch reports a checkpoint that belongs to a different run
	// configuration; resuming it would mix two experiments.
	ErrMismatch = errors.New("checkpoint: run configuration mismatch")
	// ErrNoCheckpoint reports that no checkpoint exists for the run; the
	// caller may start fresh (a crash before the first stage boundary
	// leaves exactly this state).
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
)

// Header identifies a snapshot: which run it belongs to, how far the run
// had progressed, and the snapshot's position in the checkpoint sequence.
type Header struct {
	RunID   string
	Seed    int64
	Workers int
	// Seq is the 1-based write sequence within the run's lifetime;
	// monotone across resumes (a resumed run continues its parent's
	// numbering).
	Seq uint64
	// Stage is the stage the snapshot was taken in: the just-completed
	// stage for boundary snapshots, "identify" for mid-emission ones.
	Stage string
	// Rows is the emission row count at a mid-emission snapshot; zero for
	// stage-boundary snapshots.
	Rows int64
	// ResumedFromSeq is the sequence number of the snapshot this run was
	// restored from, zero for an uninterrupted lineage.
	ResumedFromSeq uint64
}

// Emission is the mid-identify frontier: Progress[i] functions of shard i
// are fully folded into Shards[i], and Rows rows have been emitted in
// total. Shards are decoded with a nil provider matcher (all providers),
// matching the aggregation path of core.RunContext.
type Emission struct {
	Rows     int64
	Progress []int64
	Shards   []*pdns.Aggregator
}

// ProbeState is the probe stage's complete output.
type ProbeState struct {
	Results []probe.Result
	Stats   probe.Stats
}

// Snapshot is one decoded checkpoint.
type Snapshot struct {
	Header Header
	// Stages is the completed-stage ledger in completion order.
	Stages    []string
	Emission  *Emission
	Aggregate *pdns.Aggregate
	Probe     *ProbeState
	// Counters holds the registry counters the run had accumulated when
	// the snapshot was taken (Manager.PersistCounters names them); nil in
	// checkpoints written before the section existed.
	Counters map[string]int64
}

// HasStage reports whether the ledger records stage as completed.
func (s *Snapshot) HasStage(stage string) bool {
	if s == nil {
		return false
	}
	for _, st := range s.Stages {
		if st == stage {
			return true
		}
	}
	return false
}

// Encode serialises the snapshot into the framed section format.
func Encode(s *Snapshot) ([]byte, error) {
	var out bytes.Buffer
	out.WriteString(magic)
	bw := binio.NewWriter(&out)
	bw.U32(version)

	var payload bytes.Buffer
	section := func(name string, fill func(w *binio.Writer) error) error {
		payload.Reset()
		pw := binio.NewWriter(&payload)
		if err := fill(pw); err != nil {
			return err
		}
		if err := pw.Err(); err != nil {
			return err
		}
		bw.String(name)
		bw.U32(uint32(payload.Len()))
		bw.Raw(payload.Bytes())
		crc := crc32.ChecksumIEEE([]byte(name))
		crc = crc32.Update(crc, crc32.IEEETable, payload.Bytes())
		bw.U32(crc)
		return bw.Err()
	}

	err := section(secHeader, func(w *binio.Writer) error {
		w.String(s.Header.RunID)
		w.Varint(s.Header.Seed)
		w.Varint(int64(s.Header.Workers))
		w.Uvarint(s.Header.Seq)
		w.String(s.Header.Stage)
		w.Varint(s.Header.Rows)
		w.Uvarint(s.Header.ResumedFromSeq)
		return nil
	})
	if err == nil && len(s.Stages) > 0 {
		err = section(secLedger, func(w *binio.Writer) error {
			w.Uvarint(uint64(len(s.Stages)))
			for _, st := range s.Stages {
				w.String(st)
			}
			return nil
		})
	}
	if err == nil && s.Emission != nil {
		err = section(secEmission, func(w *binio.Writer) error {
			w.Varint(s.Emission.Rows)
			if len(s.Emission.Progress) != len(s.Emission.Shards) {
				return fmt.Errorf("checkpoint: %d progress entries for %d shards", len(s.Emission.Progress), len(s.Emission.Shards))
			}
			w.Uvarint(uint64(len(s.Emission.Shards)))
			var shard bytes.Buffer
			for i, agg := range s.Emission.Shards {
				w.Varint(s.Emission.Progress[i])
				shard.Reset()
				if err := agg.EncodeState(&shard); err != nil {
					return err
				}
				w.Bytes(shard.Bytes())
			}
			return nil
		})
	}
	if err == nil && s.Aggregate != nil {
		err = section(secAgg, func(w *binio.Writer) error {
			return pdns.EncodeAggregate(&payload, s.Aggregate)
		})
	}
	if err == nil && s.Probe != nil {
		err = section(secProbe, func(w *binio.Writer) error {
			encodeProbe(w, s.Probe)
			return nil
		})
	}
	if err == nil && len(s.Counters) > 0 {
		err = section(secCounters, func(w *binio.Writer) error {
			names := make([]string, 0, len(s.Counters))
			for name := range s.Counters {
				names = append(names, name)
			}
			sort.Strings(names)
			w.Uvarint(uint64(len(names)))
			for _, name := range names {
				w.String(name)
				w.Varint(s.Counters[name])
			}
			return nil
		})
	}
	if err == nil {
		err = section(secEnd, func(w *binio.Writer) error { return nil })
	}
	if err != nil {
		return nil, err
	}
	if err := bw.Err(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Decode parses a checkpoint file. Any structural problem — bad magic,
// unknown version, CRC mismatch, truncation, a missing "end" trailer, or
// trailing garbage — yields an error wrapping ErrCorrupt.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := binio.NewReader(data[len(magic):])
	v, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if v != version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, version)
	}
	s := &Snapshot{}
	sawHeader, sawEnd := false, false
	for !sawEnd {
		name, err := r.String()
		if err != nil {
			return nil, fmt.Errorf("%w: section name: %v", ErrCorrupt, err)
		}
		plen, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("%w: section %q length: %v", ErrCorrupt, name, err)
		}
		if int(plen) > r.Remaining() {
			return nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrCorrupt, name, plen, r.Remaining())
		}
		payload, err := r.Take(int(plen))
		if err != nil {
			return nil, fmt.Errorf("%w: section %q payload: %v", ErrCorrupt, name, err)
		}
		crc, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("%w: section %q crc: %v", ErrCorrupt, name, err)
		}
		want := crc32.ChecksumIEEE([]byte(name))
		want = crc32.Update(want, crc32.IEEETable, payload)
		if crc != want {
			return nil, fmt.Errorf("%w: section %q crc mismatch (file %08x, computed %08x)", ErrCorrupt, name, crc, want)
		}
		pr := binio.NewReader(payload)
		switch name {
		case secHeader:
			sawHeader = true
			err = decodeHeader(pr, &s.Header)
		case secLedger:
			s.Stages, err = decodeLedger(pr)
		case secEmission:
			s.Emission, err = decodeEmission(pr)
		case secAgg:
			s.Aggregate, err = pdns.DecodeAggregate(payload)
		case secProbe:
			s.Probe, err = decodeProbe(pr)
		case secCounters:
			s.Counters, err = decodeCounters(pr)
		case secEnd:
			sawEnd = true
		default:
			// Unknown section: CRC verified, content skipped.
		}
		if err != nil {
			return nil, fmt.Errorf("%w: section %q: %v", ErrCorrupt, name, err)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: missing header section", ErrCorrupt)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after end section", ErrCorrupt, r.Remaining())
	}
	return s, nil
}

func decodeHeader(r *binio.Reader, h *Header) error {
	var err error
	if h.RunID, err = r.String(); err != nil {
		return err
	}
	if h.Seed, err = r.Varint(); err != nil {
		return err
	}
	w, err := r.Varint()
	if err != nil {
		return err
	}
	h.Workers = int(w)
	if h.Seq, err = r.Uvarint(); err != nil {
		return err
	}
	if h.Stage, err = r.String(); err != nil {
		return err
	}
	if h.Rows, err = r.Varint(); err != nil {
		return err
	}
	h.ResumedFromSeq, err = r.Uvarint()
	return err
}

func decodeLedger(r *binio.Reader) ([]string, error) {
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		st, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func decodeEmission(r *binio.Reader) (*Emission, error) {
	em := &Emission{}
	var err error
	if em.Rows, err = r.Varint(); err != nil {
		return nil, err
	}
	n, err := r.Count(2)
	if err != nil {
		return nil, err
	}
	em.Progress = make([]int64, 0, n)
	em.Shards = make([]*pdns.Aggregator, 0, n)
	for i := 0; i < n; i++ {
		prog, err := r.Varint()
		if err != nil {
			return nil, err
		}
		blob, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		agg, err := pdns.DecodeAggregatorState(blob, nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %v", i, err)
		}
		em.Progress = append(em.Progress, prog)
		em.Shards = append(em.Shards, agg)
	}
	return em, nil
}

func decodeCounters(r *binio.Reader) (map[string]int64, error) {
	n, err := r.Count(2)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		if out[name], err = r.Varint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func encodeProbe(w *binio.Writer, p *ProbeState) {
	w.Uvarint(uint64(len(p.Results)))
	for i := range p.Results {
		r := &p.Results[i]
		w.String(r.FQDN)
		var flags uint64
		if r.Reachable {
			flags |= 1
		}
		if r.HTTPS {
			flags |= 2
		}
		w.Uvarint(flags)
		w.String(string(r.Failure))
		w.Varint(int64(r.Status))
		w.String(r.ContentType)
		w.String(r.Location)
		w.Bytes(r.Body)
		w.Varint(int64(r.Attempts))
		w.Varint(int64(r.Elapsed))
	}
	for _, v := range probeStatsFields(&p.Stats) {
		w.Varint(int64(*v))
	}
}

func decodeProbe(r *binio.Reader) (*ProbeState, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	p := &ProbeState{Results: make([]probe.Result, 0, n)}
	for i := 0; i < n; i++ {
		var res probe.Result
		if res.FQDN, err = r.String(); err != nil {
			return nil, err
		}
		flags, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		res.Reachable = flags&1 != 0
		res.HTTPS = flags&2 != 0
		fail, err := r.String()
		if err != nil {
			return nil, err
		}
		res.Failure = probe.FailureReason(fail)
		status, err := r.Varint()
		if err != nil {
			return nil, err
		}
		res.Status = int(status)
		if res.ContentType, err = r.String(); err != nil {
			return nil, err
		}
		if res.Location, err = r.String(); err != nil {
			return nil, err
		}
		body, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		if len(body) > 0 {
			res.Body = append([]byte(nil), body...)
		}
		attempts, err := r.Varint()
		if err != nil {
			return nil, err
		}
		res.Attempts = int(attempts)
		elapsed, err := r.Varint()
		if err != nil {
			return nil, err
		}
		res.Elapsed = time.Duration(elapsed)
		p.Results = append(p.Results, res)
	}
	for _, v := range probeStatsFields(&p.Stats) {
		n, err := r.Varint()
		if err != nil {
			return nil, err
		}
		*v = int(n)
	}
	return p, nil
}

// probeStatsFields enumerates the Stats counters in a fixed order shared by
// encode and decode, so the two cannot drift.
func probeStatsFields(s *probe.Stats) []*int {
	return []*int{
		&s.Probed, &s.Reachable, &s.Unreachable, &s.DNSFailures,
		&s.HTTPSOnly, &s.Fallbacks, &s.Requests, &s.Retried, &s.BreakerSkips,
	}
}
