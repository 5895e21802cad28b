// Command scfruns audits the pipeline's run-history archives. Every scfpipe
// run archives itself under .runs/<run-id>/ (summary, calibration shares,
// stage timings, manifest, event log, Chrome trace, artifact fingerprints);
// scfruns reads those archives back, compares them, and turns the
// comparison into a CI verdict. It never runs the pipeline itself.
//
// Usage:
//
//	scfruns list                          # archives under -dir, newest first
//	scfruns show r-1a2b3c4d5e6f           # one run in full
//	scfruns diff r-aaaa r-bbbb            # every dimension, side by side
//	scfruns diff -json r-aaaa r-bbbb      # the same, machine-readable
//	scfruns gate -baseline internal/runs/testdata/golden
//	scfruns gate -baseline old/ new/ -wall-tol 3
//	scfruns prof show r-1a2b3c4d5e6f        # hotspots + stage attribution
//	scfruns prof diff -baseline r-aaaa r-bbbb
//	scfruns timeline r-1a2b3c4d5e6f         # windowed telemetry + anomalies
//	scfruns timeline -diff r-aaaa r-bbbb    # when did behaviour diverge?
//
// A run argument is either a directory containing summary.json or a run ID
// resolved under -dir (default .runs, or $SCF_RUN_DIR). gate diffs the
// candidate (default: the baseline's run ID under -dir, since identical
// configs share an ID) against the baseline and exits 1 on any thresholded
// regression: stage wall time past ratio+floor, histogram p99 drift,
// per-provider probe error-rate growth or p99 drift (from the labeled
// metric vectors the timings snapshot carries), new/grown degradations,
// deterministic-artifact fingerprint changes, or calibration shares leaving
// the paper's acceptance bands.
//
// Pipeline performance (wall, CPU, peak RSS, per-layer costs) is measured by
// the separate perfbench module (`bash perfbench/run.sh`), not by scfruns.
//
// prof reads the pprof profiles a `scfpipe -profile` run archived under
// profiles/: show renders deterministic per-function hotspot tables and the
// stage/shard label attribution of the CPU profile; diff renders the
// per-function flat-share drift between two runs, refusing to compare when
// either side holds fewer samples than -min-samples. Profile drift is also
// printed by gate as an advisory section when both sides are profiled, but
// it never fails the gate: profile contents are machine-varying.
//
// Exit codes: 0 success, 1 runtime error or gate violation, 2 usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs/timeline"
	"repro/internal/paper"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// errUsage marks a flag-parse failure whose message the flag package already
// printed; usageError carries a message run() still has to print. Both exit 2.
var errUsage = errors.New("usage")

type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// errGateFailed marks a gate verdict whose violation list cmdGate already
// printed; run() maps it to exit 1 without re-logging.
var errGateFailed = errors.New("gate failed")

// run dispatches one subcommand and returns the process exit code. It is the
// whole of main so the dispatch table, flag parsing, and exit-code contract
// are testable in-process.
func run(args []string) int {
	log.SetFlags(0)
	log.SetPrefix("scfruns: ")
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList(args[1:])
	case "show":
		err = cmdShow(args[1:])
	case "diff":
		err = cmdDiff(args[1:])
	case "gate":
		err = cmdGate(args[1:])
	case "prof":
		err = cmdProf(args[1:])
	case "timeline":
		err = cmdTimeline(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		log.Printf("unknown subcommand %q", args[0])
		usage()
		return 2
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	case errors.As(err, &ue):
		log.Print(ue.msg)
		return 2
	case errors.Is(err, errGateFailed):
		return 1
	default:
		log.Print(err)
		return 1
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: scfruns <list|show|diff|gate|prof|timeline> [flags] [args]

  list                     list archived runs under -dir, newest first
  show <run>               print one archive: config, stages, calibration
  diff <a> <b>             compare two archives dimension by dimension
  gate -baseline <run> [candidate]
                           diff + thresholds; exit 1 on regression
  prof show <run>          render hotspot + label-attribution tables from a
                           run's archived pprof profiles
  prof diff -baseline <run> <candidate>
                           per-function CPU flat% drift between two runs
  timeline <run>           render a run's windowed-telemetry timeline as a
                           deterministic Markdown table with anomaly callouts
                           (-json for raw windows, -o to write a file)
  timeline -diff <a> <b>   align two timelines window-by-window and localize
                           when their behaviour diverged

run arguments are directories holding summary.json, or run IDs under -dir
(default .runs, or $SCF_RUN_DIR). See 'scfruns <cmd> -h' for flags.`)
}

// parse wraps FlagSet.Parse, translating failures into the exit-2 sentinel
// while letting -h keep its exit-0 contract.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return errUsage
	}
	return nil
}

// dirFlag registers the shared -dir flag on a subcommand's flag set.
func dirFlag(fs *flag.FlagSet) *string {
	def := os.Getenv("SCF_RUN_DIR")
	if def == "" {
		def = ".runs"
	}
	return fs.String("dir", def, "run archive root (default: $SCF_RUN_DIR or .runs)")
}

// resolve turns a run argument into an archive directory: a path that holds
// summary.json wins, otherwise the argument is a run ID under root.
func resolve(root, arg string) (string, error) {
	if _, err := os.Stat(filepath.Join(arg, runs.SummaryFile)); err == nil {
		return arg, nil
	}
	dir := filepath.Join(root, arg)
	if _, err := os.Stat(filepath.Join(dir, runs.SummaryFile)); err == nil {
		return dir, nil
	}
	return "", fmt.Errorf("no run archive at %s or %s (need %s)", arg, dir, runs.SummaryFile)
}

// resolvePartial is resolve for directories an interrupted run left behind:
// no summary.json, but provenance debris (manifest, events, checkpoints)
// worth showing. It only accepts directories that hold at least one such file
// so a typo'd run ID still errors instead of "showing" an empty dir.
func resolvePartial(root, arg string) (string, error) {
	for _, dir := range []string{arg, filepath.Join(root, arg)} {
		for _, name := range []string{runs.ManifestFile, runs.EventsFile, runs.TimingsFile, runs.CheckpointsDir} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("no run archive at %s or %s (need %s)", arg, filepath.Join(root, arg), runs.SummaryFile)
}

func load(root, arg string) (*runs.Record, error) {
	dir, err := resolve(root, arg)
	if err != nil {
		return nil, err
	}
	return runs.Read(dir)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	dir := dirFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	recs, warns, err := runs.ListWarn(*dir)
	if err != nil {
		return err
	}
	for _, w := range warns {
		log.Printf("warning: %s", w)
	}
	if len(recs) == 0 {
		fmt.Printf("no runs under %s\n", *dir)
		return nil
	}
	t := report.NewTable("Archived runs ("+*dir+")", "Run", "Tool", "Created", "Elapsed", "Seed", "Scale", "Chaos", "Degr", "Anom", "Cal")
	for _, r := range recs {
		anom := "-"
		if n, ok := runs.TimelineAnomalies(r.Dir); ok {
			anom = fmt.Sprintf("%d", n)
		}
		t.AddRow(r.Summary.ID, r.Summary.Tool, r.Timings.CreatedAt,
			time.Duration(r.Timings.ElapsedNS).Round(time.Millisecond).String(),
			r.Summary.Meta["seed"], r.Summary.Meta["scale"], r.Summary.Meta["chaos"],
			len(r.Summary.Degradations), anom, calVerdict(r.Summary.Calibration))
	}
	fmt.Println(t.String())
	return nil
}

// calVerdict reduces a run's calibration shares to one list-column verdict:
// "ok" when every share with a published paper target sits inside its band,
// "FAIL(n)" counting the shares outside, "-" when nothing is auditable.
func calVerdict(cal map[string]float64) string {
	audited, failed := 0, 0
	for k, v := range cal {
		t, ok := paper.TargetFor(k)
		if !ok {
			continue
		}
		audited++
		if !t.Contains(v) {
			failed++
		}
	}
	switch {
	case audited == 0:
		return "-"
	case failed == 0:
		return "ok"
	default:
		return fmt.Sprintf("FAIL(%d)", failed)
	}
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	dir := dirFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw summary and timings as JSON")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{"show: want exactly one run argument"}
	}
	rec, err := load(*dir, fs.Arg(0))
	if err != nil {
		// An interrupted run leaves provenance (manifest, events,
		// checkpoints) without a summary; show what is readable instead of
		// refusing — the lineage table is exactly what a post-crash
		// investigation needs.
		pdir, perr := resolvePartial(*dir, fs.Arg(0))
		if perr != nil || *asJSON {
			return err
		}
		log.Printf("warning: %s: incomplete or corrupt run archive (%v); showing what is readable", fs.Arg(0), err)
		fmt.Printf("run %s (partial archive at %s)\n\n", filepath.Base(pdir), pdir)
		showCheckpoints(pdir, nil)
		return nil
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec.Summary); err != nil {
			return err
		}
		return enc.Encode(rec.Timings)
	}
	fmt.Printf("run %s (%s) — %s, elapsed %v\n", rec.Summary.ID, rec.Summary.Tool,
		rec.Timings.CreatedAt, time.Duration(rec.Timings.ElapsedNS).Round(time.Millisecond))
	fmt.Printf("config %s\n\n", runs.ShortHash(rec.Summary.ConfigHash))

	mt := report.NewTable("Config", "Key", "Value")
	for _, k := range sortedKeys(rec.Summary.Meta) {
		mt.AddRow(k, rec.Summary.Meta[k])
	}
	fmt.Println(mt.String())

	fmt.Println(report.StageTimingsFlat(rec.Timings.Stages))

	if len(rec.Summary.Calibration) > 0 {
		ct := report.NewTable("Calibration vs paper", "Metric", "Paper", "Measured", "Holds")
		for _, k := range sortedKeys(rec.Summary.Calibration) {
			v := rec.Summary.Calibration[k]
			want, holds := "-", "-"
			if t, ok := paper.TargetFor(k); ok {
				want = fmt.Sprintf("%.4f", t.Paper)
				holds = "yes"
				if !t.Contains(v) {
					holds = "**NO**"
				}
			}
			ct.AddRow(k, want, fmt.Sprintf("%.4f", v), holds)
		}
		fmt.Println(ct.String())
	}

	if len(rec.Summary.Degradations) > 0 {
		dt := report.NewTable("Degradations absorbed", "Stage", "Kind", "Count")
		for _, d := range rec.Summary.Degradations {
			dt.AddRow(d.Stage, d.Kind, d.Count)
		}
		fmt.Println(dt.String())
	}

	if len(rec.Summary.Artifacts) > 0 {
		at := report.NewTable("Artifacts", "File", "SHA-256", "Gated")
		for _, k := range sortedKeys(rec.Summary.Artifacts) {
			gated := ""
			if runs.DeterministicArtifacts[k] {
				gated = "yes"
			}
			at.AddRow(k, runs.ShortHash(rec.Summary.Artifacts[k]), gated)
		}
		fmt.Println(at.String())
	}

	if infos, perr := runs.ListProfiles(rec.Dir); perr == nil && len(infos) > 0 {
		fmt.Println(runs.ProfilesLine(infos))
		fmt.Println()
	}

	showCheckpoints(rec.Dir, rec.Timings.Checkpoints)
	return nil
}

// showCheckpoints prints a run's crash-recovery lineage: the summary line
// recorded in timings.json (when present) and one row per on-disk checkpoint
// file, including corrupt ones a resume would skip over.
func showCheckpoints(dir string, ri *runs.RecoveryInfo) {
	if ri != nil {
		line := fmt.Sprintf("Recovery: %d checkpoint(s) written, last seq %d (%s)",
			ri.Checkpoints, ri.LastSeq, ri.LastStage)
		if ri.Resumed {
			line += fmt.Sprintf("; resumed from seq %d (%s)", ri.ResumedFrom, ri.ResumedStage)
		}
		fmt.Println(line)
		fmt.Println()
	}
	infos := checkpoint.Inspect(filepath.Join(dir, runs.CheckpointsDir))
	if len(infos) == 0 {
		return
	}
	t := report.NewTable("Checkpoint lineage", "File", "Seq", "Stage", "Rows", "Stages", "Bytes", "Status")
	for _, fi := range infos {
		status := "ok"
		switch {
		case fi.Err != "":
			status = "CORRUPT: " + fi.Err
		case fi.ResumedFromSeq > 0:
			status = fmt.Sprintf("resumed from seq %d", fi.ResumedFromSeq)
		}
		t.AddRow(fi.Name, fi.Seq, fi.Stage, fi.Rows, fi.Stages, fi.Size, status)
	}
	fmt.Println(t.String())
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	dir := dirFlag(fs)
	asJSON := fs.Bool("json", false, "print the diff report as JSON")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return usageError{"diff: want exactly two run arguments (baseline, candidate)"}
	}
	a, err := load(*dir, fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := load(*dir, fs.Arg(1))
	if err != nil {
		return err
	}
	rep := runs.Diff(a, b)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Println(rep.Render())
	return nil
}

func cmdGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	dir := dirFlag(fs)
	def := runs.DefaultGateOptions()
	var (
		baseline   = fs.String("baseline", "", "baseline run (directory or run ID; required)")
		wallTol    = fs.Float64("wall-tol", def.WallTol, "stage wall regression tolerance as a ratio above 1 (negative disables)")
		wallFloor  = fs.Duration("wall-floor", def.WallFloor, "minimum absolute wall delta before the ratio check applies")
		p99Tol     = fs.Float64("p99-tol", def.P99Tol, "histogram p99 regression tolerance as a ratio above 1 (negative disables)")
		minSamples = fs.Int64("min-samples", def.MinSamples, "histogram observations required on both sides before p99 gating")
		errTol     = fs.Float64("err-tol", def.ErrRateTol, "per-provider probe error-rate growth tolerance, absolute (negative disables provider gating)")
		noDegr     = fs.Bool("no-degradations", false, "skip degradation-drift gating")
		noArt      = fs.Bool("no-artifacts", false, "skip deterministic-artifact fingerprint gating")
		noCal      = fs.Bool("no-calibration", false, "skip paper-calibration gating")
		quiet      = fs.Bool("quiet", false, "suppress the full diff; print only violations")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *baseline == "" {
		return usageError{"gate: -baseline is required"}
	}

	a, err := load(*dir, *baseline)
	if err != nil {
		return err
	}
	// Identical configs share a run ID, so the candidate defaults to the
	// baseline's slot under -dir: "did the same experiment regress?"
	candArg := a.Summary.ID
	if fs.NArg() > 0 {
		candArg = fs.Arg(0)
	}
	b, err := load(*dir, candArg)
	if err != nil {
		return fmt.Errorf("candidate: %w", err)
	}
	rep := runs.Diff(a, b)
	if !*quiet {
		fmt.Println(rep.Render())
		fmt.Println()
	}
	violations := rep.Gate(runs.GateOptions{
		WallTol:      *wallTol,
		WallFloor:    *wallFloor,
		P99Tol:       *p99Tol,
		MinSamples:   *minSamples,
		ErrRateTol:   *errTol,
		Degradations: !*noDegr,
		Artifacts:    !*noArt,
		Calibration:  !*noCal,
	})
	// Advisory only: profile contents are machine-varying, so hotspot drift
	// informs the verdict's reader but never fails the gate. Most runs
	// (including the golden baseline) are unprofiled; then this prints
	// nothing.
	if adv := profAdvisory(a.Dir, b.Dir); adv != "" {
		fmt.Println(adv)
	}

	if len(violations) > 0 {
		fmt.Printf("GATE FAILED: %d violation(s)\n", len(violations))
		for _, v := range violations {
			fmt.Printf("  - %s\n", v)
		}
		return errGateFailed
	}
	fmt.Println("GATE PASSED")
	return nil
}

// profDiffMinSamples is the default min-sample floor for profile drift: both
// sides need this much total flat value (nanoseconds for CPU profiles, so
// 100ms of samples) before per-function shares are considered comparable.
// Tiny profiles render as "not comparable" instead of screaming drift.
const profDiffMinSamples = 100_000_000

// cmdProf dispatches the profile sub-subcommands.
func cmdProf(args []string) error {
	if len(args) < 1 {
		return usageError{"prof: want a subcommand (show or diff)"}
	}
	switch args[0] {
	case "show":
		return cmdProfShow(args[1:])
	case "diff":
		return cmdProfDiff(args[1:])
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(os.Stderr, `usage: scfruns prof <show|diff> [flags] [args]

  show [-kind cpu] [-top 20] [-o file] <run>
                           hotspot + label-attribution tables from the run's
                           archived profiles of one kind
  diff -baseline <run> [-kind cpu] [-stage s] [-min-samples n] <candidate>
                           per-function flat-share drift between two runs'
                           profiles (advisory; small profiles never compare)`)
		return nil
	default:
		return usageError{fmt.Sprintf("prof: unknown subcommand %q (want show or diff)", args[0])}
	}
}

func cmdProfShow(args []string) error {
	fs := flag.NewFlagSet("prof show", flag.ContinueOnError)
	dir := dirFlag(fs)
	kind := fs.String("kind", "cpu", "profile kind to render: cpu, heap, allocs, block, or mutex")
	top := fs.Int("top", 20, "functions per hotspot table")
	out := fs.String("o", "", "write the rendering to this file instead of stdout")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{"prof show: want exactly one run argument"}
	}
	rdir, err := resolve(*dir, fs.Arg(0))
	if err != nil {
		return err
	}
	text, err := renderProfShow(rdir, *kind, *top)
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, []byte(text), 0o644)
	}
	fmt.Print(text)
	return nil
}

// renderProfShow renders every archived profile of one kind: a per-function
// hotspot table each, plus (for the CPU profile) the stage and shard label
// attributions. The rendering is a pure function of the archived bytes —
// byte-identical across repeated invocations.
func renderProfShow(rdir, kind string, top int) (string, error) {
	infos, err := runs.ListProfiles(rdir)
	if err != nil {
		return "", err
	}
	if len(infos) == 0 {
		return "", fmt.Errorf("prof: no profiles under %s (re-run the experiment with scfpipe -profile)", filepath.Join(rdir, runs.ProfilesDir))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run %s — %s\n\n", filepath.Base(rdir), runs.ProfilesLine(infos))
	matched := 0
	for _, info := range infos {
		if info.Kind != kind {
			continue
		}
		matched++
		p, err := readRunProfile(rdir, info.Name)
		if err != nil {
			return "", err
		}
		vi := p.ValueIndex("")
		fmt.Fprintf(&b, "== %s ==\n\n", info.Name)
		b.WriteString(prof.RenderTop(p, vi, top))
		b.WriteString("\n")
		if kind == "cpu" {
			b.WriteString(prof.RenderLabels(p, "stage", vi))
			b.WriteString("\n")
			b.WriteString(prof.RenderLabels(p, "shard", vi))
			b.WriteString("\n")
		}
	}
	if matched == 0 {
		return "", fmt.Errorf("prof: no %q profiles in %s (%s)", kind, rdir, runs.ProfilesLine(infos))
	}
	return b.String(), nil
}

func cmdProfDiff(args []string) error {
	fs := flag.NewFlagSet("prof diff", flag.ContinueOnError)
	dir := dirFlag(fs)
	baseline := fs.String("baseline", "", "baseline run (directory or run ID; required)")
	kind := fs.String("kind", "cpu", "profile kind to diff: cpu, heap, allocs, block, or mutex")
	stage := fs.String("stage", "", "stage whose profile to diff (default: the CPU profile, or the kind's only stage)")
	minSamples := fs.Int64("min-samples", profDiffMinSamples, "total flat value required on both sides before shares are comparable")
	top := fs.Int("top", 20, "rows in the drift table")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *baseline == "" {
		return usageError{"prof diff: -baseline is required"}
	}
	if fs.NArg() != 1 {
		return usageError{"prof diff: want exactly one candidate run argument"}
	}
	bdir, err := resolve(*dir, *baseline)
	if err != nil {
		return err
	}
	cdir, err := resolve(*dir, fs.Arg(0))
	if err != nil {
		return fmt.Errorf("candidate: %w", err)
	}
	base, name, err := loadRunProfile(bdir, *kind, *stage)
	if err != nil {
		return err
	}
	cand, _, err := loadRunProfile(cdir, *kind, *stage)
	if err != nil {
		return fmt.Errorf("candidate: %w", err)
	}
	d := prof.DiffFlat(base, cand, "", *minSamples)
	fmt.Printf("profile drift %s: %s -> %s\n\n", name, filepath.Base(bdir), filepath.Base(cdir))
	fmt.Print(prof.RenderDrift(d, *top))
	return nil
}

// loadRunProfile picks and decodes one profile of a run by kind and stage.
// An empty stage means "the obvious one": the run-wide CPU profile for cpu,
// or the kind's only archived stage; ambiguity is an error naming the
// choices rather than a silent pick.
func loadRunProfile(rdir, kind, stage string) (*prof.Profile, string, error) {
	if stage == "" && kind == "cpu" {
		stage = prof.CPUSnapshotStage
	}
	infos, err := runs.ListProfiles(rdir)
	if err != nil {
		return nil, "", err
	}
	var candidates []runs.ProfileInfo
	for _, info := range infos {
		if info.Kind != kind {
			continue
		}
		if stage != "" && info.Stage != stage {
			continue
		}
		candidates = append(candidates, info)
	}
	switch len(candidates) {
	case 0:
		return nil, "", fmt.Errorf("prof: no %q profile for stage %q in %s", kind, stage, rdir)
	case 1:
		p, err := readRunProfile(rdir, candidates[0].Name)
		return p, candidates[0].Name, err
	default:
		stages := make([]string, 0, len(candidates))
		for _, c := range candidates {
			stages = append(stages, c.Stage)
		}
		return nil, "", fmt.Errorf("prof: %d %q profiles in %s; pick one with -stage (%s)", len(candidates), kind, rdir, strings.Join(stages, ", "))
	}
}

// readRunProfile reads and decodes one archived profile file.
func readRunProfile(rdir, name string) (*prof.Profile, error) {
	data, err := runs.ReadProfile(rdir, name)
	if err != nil {
		return nil, err
	}
	p, err := prof.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("prof: %s: %w", name, err)
	}
	return p, nil
}

// profAdvisory renders the advisory CPU-drift block of a gate verdict: when
// both sides archived a CPU profile, their per-function flat shares are
// diffed and shown. It never contributes a violation — profile contents are
// machine-varying — and returns "" when either side is unprofiled.
func profAdvisory(baseDir, candDir string) string {
	base, _, berr := loadRunProfile(baseDir, "cpu", "")
	cand, _, cerr := loadRunProfile(candDir, "cpu", "")
	if berr != nil || cerr != nil {
		return ""
	}
	d := prof.DiffFlat(base, cand, "", profDiffMinSamples)
	var b strings.Builder
	b.WriteString("CPU hotspot drift (advisory — profiles are machine-varying and never gate):\n\n")
	b.WriteString(prof.RenderDrift(d, 10))
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cmdTimeline renders a run's windowed-telemetry timeline (timeline.jsonl)
// as a deterministic Markdown table with anomaly and breach callouts, or —
// with -diff — aligns two runs' timelines window-by-window to localize when
// their behaviour diverged. The render is a pure function of the archived
// bytes: five renders of the same archive are byte-identical.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	dir := dirFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw window records as a JSON array")
	out := fs.String("o", "", "write the rendered output to this file instead of stdout")
	diff := fs.Bool("diff", false, "align two runs window-by-window")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *diff && *asJSON {
		return usageError{"timeline: -json and -diff are mutually exclusive"}
	}
	var rendered string
	switch {
	case *diff:
		if fs.NArg() != 2 {
			return usageError{"timeline -diff: want exactly two run arguments"}
		}
		a, err := load(*dir, fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := load(*dir, fs.Arg(1))
		if err != nil {
			return err
		}
		aws, err := runs.ReadTimeline(a.Dir)
		if err != nil {
			return err
		}
		bws, err := runs.ReadTimeline(b.Dir)
		if err != nil {
			return err
		}
		rendered = report.RenderTimelineDiff(a.Summary.ID, b.Summary.ID, aws, bws)
	default:
		if fs.NArg() != 1 {
			return usageError{"timeline: want exactly one run argument"}
		}
		rec, err := load(*dir, fs.Arg(0))
		if err != nil {
			return err
		}
		ws, err := runs.ReadTimeline(rec.Dir)
		if err != nil {
			return err
		}
		if *asJSON {
			if ws == nil {
				ws = []timeline.Window{}
			}
			b, err := json.MarshalIndent(ws, "", "  ")
			if err != nil {
				return err
			}
			rendered = string(b) + "\n"
		} else {
			rendered = report.RenderTimeline(rec.Summary.ID, ws)
		}
	}
	if *out != "" {
		return os.WriteFile(*out, []byte(rendered), 0o644)
	}
	fmt.Print(rendered)
	return nil
}
