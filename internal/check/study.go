package check

import (
	"fmt"
	"io"
	"text/tabwriter"

	"oocnvm/internal/experiment"
	"oocnvm/internal/fault"
	"oocnvm/internal/ftl"
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
	"oocnvm/internal/trace"
)

// StudyRow is one checkpoint-interval point of the crash-recovery study:
// the durable-metadata write overhead the interval costs during normal
// operation, against the mean-time-to-recover it buys at the cut.
type StudyRow struct {
	// CheckpointEvery is the mapping-table checkpoint interval in host
	// pages (0 rows use the FTL default).
	CheckpointEvery int64
	// HostPages, JournalPages and CkptPages count page programs up to the
	// cut; MetaOverhead is (journal+checkpoint)/host — the journal's write
	// amplification contribution.
	HostPages    int64
	JournalPages int64
	CkptPages    int64
	MetaOverhead float64
	// MTTR is the simulated mount-time recovery duration; the remaining
	// fields break it down (metadata pages replayed, OOB tags scanned,
	// mappings recovered from the scan).
	MTTR        sim.Time
	PagesRead   int64
	Scanned     int64
	Recovered   int64
	TornPages   int64
	Checkpoints int64
}

// studyReplay drives the trace through the drive opt assembles for the
// configuration, cutting power at the given program/erase boundary (0 =
// never, count-only), and returns the pre-crash stats, the boundary count,
// and — when the cut fired — the recovery report.
func studyReplay(cfg experiment.Config, cell nvm.CellType, opt experiment.Options,
	ops []trace.BlockOp, window int64, cutAt int64) (ftl.Stats, int64, ftl.RecoveryReport, error) {

	opt.Crash = &fault.CrashPlan{AfterOps: cutAt}
	tr, err := experiment.Translator(cfg, cell, opt)
	if err != nil {
		return ftl.Stats{}, 0, ftl.RecoveryReport{}, err
	}
	f, ok := tr.(*ftl.FTL)
	if !ok {
		return ftl.Stats{}, 0, ftl.RecoveryReport{}, fmt.Errorf("check: crash study needs an FTL configuration, %s has none", cfg.Name)
	}
	drive, err := experiment.Assemble(cfg, cell, tr, opt, window)
	if err != nil {
		return ftl.Stats{}, 0, ftl.RecoveryReport{}, err
	}
	inj := drive.Fault
	for _, op := range ops {
		if inj.Crashed() {
			break
		}
		drive.Submit(op)
	}
	stats := f.Stats()
	if !inj.Crashed() {
		return stats, inj.PEOps(), ftl.RecoveryReport{}, nil
	}
	_, rep, rerr := recoverMedia(cell, opt, f.Media())
	if rerr != nil {
		return stats, inj.PEOps(), rep, fmt.Errorf("study recovery at ckpt=%d cut=%d: %w", opt.DurableCheckpointPages, cutAt, rerr)
	}
	return stats, inj.PEOps(), rep, nil
}

// CrashStudy measures the checkpoint-interval trade-off on the Figure 7a
// out-of-core workload: for each interval it replays the workload's block
// trace through the drive opt assembles for the configuration, with
// durable metadata on, cuts power at 75% of the run's program/erase
// boundaries, recovers, and reports journal write amplification against
// mount-time recovery cost.
func CrashStudy(cfg experiment.Config, cell nvm.CellType, opt experiment.Options, intervals []int64) ([]StudyRow, error) {
	ops, window, err := experiment.BlockTrace(cfg, cell, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]StudyRow, 0, len(intervals))
	for _, every := range intervals {
		// A zero interval is the FTL's default; in Options it would turn
		// the durable model off.
		opt.DurableCheckpointPages = every
		if every == 0 {
			opt.DurableCheckpointPages = ftl.DefaultCheckpointPages(opt.Geometry, nvm.Params(cell))
		}
		_, total, _, err := studyReplay(cfg, cell, opt, ops, window, 0)
		if err != nil {
			return rows, err
		}
		if total == 0 {
			return rows, fmt.Errorf("study workload produced no program/erase boundaries")
		}
		cut := total * 3 / 4
		if cut == 0 {
			cut = 1
		}
		stats, _, rep, err := studyReplay(cfg, cell, opt, ops, window, cut)
		if err != nil {
			return rows, err
		}
		row := StudyRow{
			CheckpointEvery: every,
			HostPages:       stats.HostWrites,
			JournalPages:    stats.JournalPages,
			CkptPages:       stats.CkptPages,
			MTTR:            rep.Duration,
			PagesRead:       rep.JournalPagesRead,
			Scanned:         rep.ScannedPages,
			Recovered:       rep.RecoveredMaps,
			TornPages:       rep.TornPages,
			Checkpoints:     stats.CkptRuns,
		}
		if stats.HostWrites > 0 {
			row.MetaOverhead = float64(stats.JournalPages+stats.CkptPages) / float64(stats.HostWrites)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteStudy renders the study as an aligned table.
func WriteStudy(w io.Writer, rows []StudyRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ckpt-every\thost-pages\tjournal\tckpt\tmeta-WA\tckpts\tMTTR\tmeta-read\tscanned\trecovered\ttorn")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.4f\t%d\t%v\t%d\t%d\t%d\t%d\n",
			r.CheckpointEvery, r.HostPages, r.JournalPages, r.CkptPages, r.MetaOverhead,
			r.Checkpoints, r.MTTR, r.PagesRead, r.Scanned, r.Recovered, r.TornPages)
	}
	tw.Flush()
}
