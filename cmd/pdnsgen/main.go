// Command pdnsgen generates the calibrated synthetic passive-DNS dataset
// and writes it as TSV or JSONL, one record per line (schema of paper §3.2:
// fqdn, rtype, rdata, first_seen, last_seen, request_cnt, pdate).
//
// Usage:
//
//	pdnsgen -seed 1 -scale 0.01 -format tsv -o pdns.tsv
//	pdnsgen -scale 0.001 -chaos heavy -o dirty.tsv   # corrupted feed
//
// With -chaos a deterministic fraction of the emitted lines is mangled
// (truncated mid-record, wrong column count, binary garbage) the way a real
// feed transfer degrades, producing datasets that exercise a reader's
// quarantine path. The corruption schedule depends only on the chaos seed
// and the line contents, so the dirty dataset is as reproducible as the
// clean one.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/dnssim"
	"repro/internal/fault"
	"repro/internal/pdns"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdnsgen: ")
	var (
		seed    = flag.Int64("seed", 1, "generator seed (equal seeds give identical datasets)")
		scale   = flag.Float64("scale", 0.01, "fraction of the paper's 531k-domain population")
		format  = flag.String("format", "tsv", "output format: tsv or jsonl")
		out     = flag.String("o", "-", "output file (- for stdout)")
		cache   = flag.Bool("cache-model", false, "model resolver caching (request_cnt becomes a lower bound)")
		fleet   = flag.String("fleet", "", "also write the ground-truth fleet spec (JSONL) to this file")
		workers = flag.Int("workers", 0, "generation worker pool (0 = GOMAXPROCS; output is byte-identical for every value)")
		chaos   = flag.String("chaos", "", "corrupt a deterministic fraction of output lines: none, light, or heavy, optionally ,seed=N")
	)
	flag.Parse()

	var chaosProf fault.Profile
	if *chaos != "" {
		var err error
		if chaosProf, err = fault.ParseProfile(*chaos); err != nil {
			log.Fatal(err)
		}
		chaosProf = chaosProf.WithSeed(*seed)
	}

	var f pdns.Format
	switch *format {
	case "tsv":
		f = pdns.TSV
	case "jsonl":
		f = pdns.JSONL
	default:
		log.Fatalf("unknown format %q (want tsv or jsonl)", *format)
	}

	w := os.Stdout
	if *out != "-" {
		file, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w = file
	}

	pop := workload.Generate(workload.Config{Seed: *seed, Scale: *scale, CacheModel: *cache, Workers: *workers})
	if *fleet != "" {
		ff, err := os.Create(*fleet)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.WritePopulation(ff, pop); err != nil {
			log.Fatal(err)
		}
		if err := ff.Close(); err != nil {
			log.Fatal(err)
		}
	}
	var sink io.Writer = w
	var corrupter *fault.CorruptingWriter
	if chaosProf.FeedCorrupt > 0 {
		corrupter = fault.NewCorruptingWriter(w, fault.New(chaosProf))
		sink = corrupter
	}
	writer := pdns.NewWriter(sink, f)
	resolver := dnssim.NewResolver()
	// Generation streams columnar batches in population order — the same
	// bytes as per-record writes, for every -workers value.
	if err := workload.EmitPDNSOrdered(pop, resolver, *workers, writer.WriteBatch); err != nil {
		log.Fatal(err)
	}
	if err := writer.Flush(); err != nil {
		log.Fatal(err)
	}
	if corrupter != nil {
		if err := corrupter.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pdnsgen: corrupted %d lines (chaos %s)\n", corrupter.Corrupted(), chaosProf.String())
	}
	// A failed close means a truncated dataset, so it must fail the run.
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "pdnsgen: %d functions, %d records\n", len(pop.Functions), writer.Count())
}
