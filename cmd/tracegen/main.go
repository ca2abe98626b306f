// Command tracegen captures the two trace levels of the paper's §4.2: the
// POSIX-level trace of the out-of-core workload and the device-level block
// trace after a chosen file system mutates it. Traces are written in the
// binary format of internal/trace (or JSON with -json) and characterized on
// stderr; -fig6 prints the access-pattern comparison of Figure 6.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"oocnvm/internal/experiment"
	"oocnvm/internal/fs"
	"oocnvm/internal/nvm"
	"oocnvm/internal/obs/export"
	"oocnvm/internal/ooc"
	"oocnvm/internal/trace"
	"oocnvm/internal/ufs"
)

func main() {
	var (
		matrix  = flag.Int("matrix", 512, "Hamiltonian footprint in MiB")
		panel   = flag.Int("panel", 8, "row-panel read size in MiB")
		apps    = flag.Int("apps", 4, "operator applications")
		fsName  = flag.String("fs", "GPFS", "file system: GPFS, UFS, EXT2, EXT3, EXT4, EXT4-L, XFS, JFS, REISERFS, BTRFS")
		posixF  = flag.String("posix", "", "write the POSIX-level trace to this file")
		blockF  = flag.String("block", "", "write the block-level trace to this file")
		asJSON  = flag.Bool("json", false, "write JSON instead of the binary format")
		fig6    = flag.Bool("fig6", false, "print the Figure 6 access-pattern comparison")
		entries = flag.Int("n", 64, "entries to print with -fig6")
		seed    = flag.Uint64("seed", 42, "random stream seed")
	)
	flag.Parse()
	if err := run(*matrix, *panel, *apps, *fsName, *posixF, *blockF, *asJSON, *fig6, *entries, *seed, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func buildFS(name string, capacity int64, seed uint64) (fs.FileSystem, error) {
	switch name {
	case "GPFS":
		return fs.NewGPFS(fs.DefaultGPFS(), capacity, seed)
	case "UFS":
		return &ufs.AsFileSystem{}, nil
	}
	for _, p := range fs.LocalProfiles() {
		if p.Name == name {
			return fs.New(p, capacity, seed)
		}
	}
	return nil, fmt.Errorf("unknown file system %q", name)
}

func run(matrix, panel, apps int, fsName, posixF, blockF string, asJSON, fig6 bool, entries int, seed uint64, out, errw io.Writer) error {
	if fig6 && entries < 1 {
		return fmt.Errorf("-n must be at least 1 with -fig6, got %d", entries)
	}
	wl := ooc.Workload{
		MatrixBytes:  int64(matrix) << 20,
		PanelBytes:   int64(panel) << 20,
		Applications: apps,
	}
	posix, err := wl.PosixTrace()
	if err != nil {
		return err
	}
	capacity := nvm.PaperGeometry().Capacity(nvm.Params(nvm.SLC))
	fsys, err := buildFS(fsName, capacity, seed)
	if err != nil {
		return err
	}
	block := fsys.Transform(posix)

	if fig6 {
		opt := experiment.DefaultOptions()
		opt.Workload = wl
		opt.Seed = seed
		s, err := experiment.FormatFig6(opt, entries)
		if err != nil {
			return err
		}
		fmt.Fprint(out, s)
	}

	st := trace.Characterize(block)
	fmt.Fprintf(errw, "posix ops: %d (%d MiB)\n", len(posix), wl.TotalBytes()>>20)
	fmt.Fprintf(errw, "%s block ops: %d, mean request %.1f KiB, %.1f%% sequential, %d metadata ops, %d sync ops\n",
		fsys.Name(), st.Ops, st.MeanSize/1024, 100*st.SequentialPct, st.MetaOps, st.SyncOps)

	if posixF != "" {
		if err := export.WriteFile(posixF, func(f io.Writer) error {
			if asJSON {
				return trace.EncodeJSON(f, posix)
			}
			return trace.WritePosixTrace(f, posix)
		}); err != nil {
			return err
		}
	}
	if blockF != "" {
		if err := export.WriteFile(blockF, func(f io.Writer) error {
			if asJSON {
				return trace.EncodeJSON(f, block)
			}
			return trace.WriteBlockTrace(f, block)
		}); err != nil {
			return err
		}
	}
	return nil
}
