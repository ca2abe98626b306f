// Package experiment is the evaluation harness: it assembles each of the
// paper's Table 2 software/hardware configurations into a full simulated
// stack (workload → file system → translation layer → SSD → interconnect),
// runs them over all four NVM types, and renders every table and figure of
// the paper's evaluation section (§4).
package experiment

import (
	"fmt"

	"oocnvm/internal/fs"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/nvm"
	"oocnvm/internal/ufs"
)

// FSKind selects the software layer of a configuration.
type FSKind int

// The three software layers.
const (
	FSProfile FSKind = iota // a conventional local file system (+ device FTL)
	FSGPFS                  // the parallel file system, ION-local placement
	FSUFS                   // the paper's Unified File System (no FTL)
)

// Config is one row of Table 2.
type Config struct {
	Name    string
	Kind    FSKind
	Profile fs.Profile              // for FSProfile
	GPFS    fs.GPFSConfig           // for FSGPFS
	PCIe    interconnect.PCIeConfig // the SSD's attachment
	Bus     nvm.BusParams           // NVM interface bus
	Remote  bool                    // behind the cluster network (ION-local)
	Network interconnect.NetworkParams
}

// baselinePCIe is the bridged PCIe 2.0 x8 attachment every Table 2 row up to
// CNL-UFS uses.
func baselinePCIe() interconnect.PCIeConfig {
	return interconnect.PCIeConfig{Gen: interconnect.PCIeGen2, Lanes: 8, Bridged: true}
}

// IONGPFS is Table 2 row 1: the prior work's architecture.
func IONGPFS() Config {
	return Config{
		Name: "ION-GPFS", Kind: FSGPFS, GPFS: fs.DefaultGPFS(),
		PCIe: baselinePCIe(), Bus: nvm.ONFi3SDR(),
		Remote: true, Network: interconnect.QDR4XInfiniBand(),
	}
}

// CNL wraps a local file-system profile in the baseline CNL hardware.
func CNL(p fs.Profile) Config {
	return Config{
		Name: "CNL-" + p.Name, Kind: FSProfile, Profile: p,
		PCIe: baselinePCIe(), Bus: nvm.ONFi3SDR(),
	}
}

// CNLUFS is the software-optimized configuration: UFS on baseline hardware.
func CNLUFS() Config {
	return Config{Name: "CNL-UFS", Kind: FSUFS, PCIe: baselinePCIe(), Bus: nvm.ONFi3SDR()}
}

// CNLBridge16 widens the bridged PCIe 2.0 attachment to 16 lanes.
func CNLBridge16() Config {
	return Config{
		Name: "CNL-BRIDGE-16", Kind: FSUFS,
		PCIe: interconnect.PCIeConfig{Gen: interconnect.PCIeGen2, Lanes: 16, Bridged: true},
		Bus:  nvm.ONFi3SDR(),
	}
}

// CNLNative8 is the native PCIe 3.0 x8 controller with the DDR NVM bus.
func CNLNative8() Config {
	return Config{
		Name: "CNL-NATIVE-8", Kind: FSUFS,
		PCIe: interconnect.PCIeConfig{Gen: interconnect.PCIeGen3, Lanes: 8, Bridged: false},
		Bus:  nvm.FutureDDR(),
	}
}

// CNLNative16 uses all 16 PCIe 3.0 lanes.
func CNLNative16() Config {
	return Config{
		Name: "CNL-NATIVE-16", Kind: FSUFS,
		PCIe: interconnect.PCIeConfig{Gen: interconnect.PCIeGen3, Lanes: 16, Bridged: false},
		Bus:  nvm.FutureDDR(),
	}
}

// FileSystemConfigs returns the ten configurations of Figure 7 (ION-GPFS,
// eight local file systems, UFS) in the paper's chart order.
func FileSystemConfigs() []Config {
	out := []Config{IONGPFS()}
	for _, p := range []fs.Profile{
		fs.JFS(), fs.BTRFS(), fs.XFS(), fs.ReiserFS(),
		fs.Ext2(), fs.Ext3(), fs.Ext4(), fs.Ext4Large(),
	} {
		out = append(out, CNL(p))
	}
	return append(out, CNLUFS())
}

// DeviceConfigs returns the four configurations of Figure 8.
func DeviceConfigs() []Config {
	return []Config{CNLUFS(), CNLBridge16(), CNLNative8(), CNLNative16()}
}

// Table2 returns all thirteen evaluated configurations in paper order.
func Table2() []Config {
	out := FileSystemConfigs()
	return append(out, CNLBridge16(), CNLNative8(), CNLNative16())
}

// FindConfig returns the named configuration.
func FindConfig(name string) (Config, error) {
	for _, c := range Table2() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("experiment: no configuration named %q", name)
}

// buildFS instantiates the configuration's software layer for a device of
// the given capacity.
func (c Config) buildFS(capacity int64, seed uint64) (fs.FileSystem, error) {
	switch c.Kind {
	case FSProfile:
		return fs.New(c.Profile, capacity, seed)
	case FSGPFS:
		return fs.NewGPFS(c.GPFS, capacity, seed)
	case FSUFS:
		return &ufs.AsFileSystem{}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown FS kind %d", c.Kind)
	}
}

// BuildLink instantiates the configuration's host data path.
func (c Config) BuildLink() nvm.Link {
	if c.Remote {
		return interconnect.IONPath(c.PCIe, c.Network)
	}
	return interconnect.NewPCIeLine(c.PCIe)
}
