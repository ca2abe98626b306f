// Filesystems: the paper's Figure 7 study as a program — run the out-of-core
// workload through GPFS-over-InfiniBand, eight local file systems, and UFS on
// identical SSD hardware, and see why "existing file systems are insufficient
// to fully leverage the capabilities of existing NVM devices" (§3.2).
package main

import (
	"fmt"
	"log"

	"oocnvm/internal/experiment"
	"oocnvm/internal/nvm"
	"oocnvm/internal/ooc"
)

func main() {
	opt := experiment.DefaultOptions()
	opt.Workload = ooc.Workload{MatrixBytes: 128 << 20, PanelBytes: 8 << 20, Applications: 2}
	// Only achieved bandwidth is printed, so skip the media-capable replay.
	opt.MeasureRemaining = false

	configs := experiment.FileSystemConfigs()
	cells := []nvm.CellType{nvm.TLC, nvm.SLC}
	ms, err := experiment.Matrix(configs, cells, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(experiment.FormatBandwidthTable("File systems on identical hardware", ms, configs, cells))
	fmt.Println()

	// The two paper claims, extracted programmatically.
	ion, _ := experiment.Lookup(ms, "ION-GPFS", nvm.SLC)
	ext2, _ := experiment.Lookup(ms, "CNL-EXT2", nvm.SLC)
	ufs, _ := experiment.Lookup(ms, "CNL-UFS", nvm.SLC)
	fmt.Printf("moving the SSD from the ION to the compute node (worst local FS, SLC): +%.0f%%\n",
		100*(ext2.AchievedMBps()/ion.AchievedMBps()-1))
	fmt.Printf("replacing the file system and FTL with UFS:                          +%.0f%% more\n",
		100*(ufs.AchievedMBps()/ext2.AchievedMBps()-1))

	ext2t, _ := experiment.Lookup(ms, "CNL-EXT2", nvm.TLC)
	btrfs, _ := experiment.Lookup(ms, "CNL-BTRFS", nvm.TLC)
	fmt.Printf("spread between best and worst local FS (TLC):                        %.1fx\n",
		btrfs.AchievedMBps()/ext2t.AchievedMBps())
}
