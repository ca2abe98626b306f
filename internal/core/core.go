// Package core is the top of the library: it assembles the paper's proposed
// system — a compute node with local NVM managed by the Unified File System
// — into one object an application can adopt: allocate named arrays on raw
// NVM, stage data into them, stream them back at NVM-transaction speed, and
// account simulated time for every byte moved.
//
// It is the programmatic face of Figure 2b: where the evaluation harness
// (internal/experiment) replays traces to regenerate the paper's charts,
// core.Node is the API a new out-of-core application would build against.
package core

import (
	"fmt"

	"oocnvm/internal/experiment"
	"oocnvm/internal/interconnect"
	"oocnvm/internal/nvm"
	"oocnvm/internal/sim"
	"oocnvm/internal/ssd"
	"oocnvm/internal/trace"
	"oocnvm/internal/ufs"
)

// NodeConfig selects the compute node's local NVM hardware.
type NodeConfig struct {
	Geometry nvm.Geometry
	Cell     nvm.CellType
	Bus      nvm.BusParams
	PCIe     interconnect.PCIeConfig
}

// DefaultNodeConfig is the paper's software-optimized baseline: the standard
// 8-channel SSD with SLC NAND behind bridged PCIe 2.0 x8, driven through UFS.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		Geometry: nvm.PaperGeometry(),
		Cell:     nvm.SLC,
		Bus:      nvm.ONFi3SDR(),
		PCIe:     interconnect.PCIeConfig{Gen: interconnect.PCIeGen2, Lanes: 8, Bridged: true},
	}
}

// NativeNodeConfig is the paper's hardware-optimized endpoint (CNL-NATIVE-16):
// native PCIe 3.0 x16 controller and the DDR NVM bus.
func NativeNodeConfig(cell nvm.CellType) NodeConfig {
	c := DefaultNodeConfig()
	c.Cell = cell
	c.Bus = nvm.FutureDDR()
	c.PCIe = interconnect.PCIeConfig{Gen: interconnect.PCIeGen3, Lanes: 16, Bridged: false}
	return c
}

// Node is a compute node with UFS-managed local NVM.
type Node struct {
	cfg   NodeConfig
	cell  nvm.CellParams
	fs    *ufs.UFS
	drive *ssd.SSD

	bytesRead    int64
	bytesWritten int64
}

// NewNode builds the node.
func NewNode(cfg NodeConfig) (*Node, error) {
	cell := nvm.Params(cfg.Cell)
	u, err := ufs.New(cfg.Geometry.Capacity(cell), cell.BlockSize())
	if err != nil {
		return nil, err
	}
	hw := experiment.Config{Name: "node", Kind: experiment.FSUFS, PCIe: cfg.PCIe, Bus: cfg.Bus}
	opt := experiment.Options{Geometry: cfg.Geometry}
	tr, err := experiment.Translator(hw, cfg.Cell, opt)
	if err != nil {
		return nil, err
	}
	drive, err := experiment.Assemble(hw, cfg.Cell, tr, opt, 0)
	if err != nil {
		return nil, err
	}
	return &Node{cfg: cfg, cell: cell, fs: u, drive: drive.SSD}, nil
}

// Capacity reports the node's raw NVM capacity in bytes.
func (n *Node) Capacity() int64 { return n.fs.Capacity() }

// Alloc reserves a named array on the local NVM.
func (n *Node) Alloc(name string, size int64) (ufs.Extent, error) {
	return n.fs.Alloc(name, size)
}

// Write stages [off, off+size) of the named array onto the NVM, enforcing
// erase-before-write, and advances simulated time.
func (n *Node) Write(name string, off, size int64) error {
	ops, err := n.fs.Write(name, off, size)
	if err != nil {
		return err
	}
	n.submit(ops)
	n.bytesWritten += size
	return nil
}

// Read streams [off, off+size) of the named array from the NVM.
func (n *Node) Read(name string, off, size int64) error {
	ops, err := n.fs.Read(name, off, size)
	if err != nil {
		return err
	}
	n.submit(ops)
	n.bytesRead += size
	return nil
}

// Seal marks an array immutable (the DOoC write-once semantics).
func (n *Node) Seal(name string) error { return n.fs.Seal(name) }

// Erase reclaims an array's blocks (host-managed erase-before-write).
func (n *Node) Erase(name string) error {
	ops, err := n.fs.Erase(name)
	if err != nil {
		return err
	}
	n.submit(ops)
	return nil
}

func (n *Node) submit(ops []trace.BlockOp) {
	for _, op := range ops {
		n.drive.Submit(op)
	}
}

// Stats summarizes the node's simulated activity.
type Stats struct {
	Elapsed      sim.Time
	BytesRead    int64
	BytesWritten int64
	ReadMBps     float64
	Device       nvm.Stats
}

// Stats drains outstanding I/O and reports totals.
func (n *Node) Stats() Stats {
	res := n.drive.Finish()
	return Stats{
		Elapsed:      res.Elapsed,
		BytesRead:    n.bytesRead,
		BytesWritten: n.bytesWritten,
		ReadMBps:     res.MBps(),
		Device:       res.Stats,
	}
}

// Storage adapts a node extent to the ooc.Storage contract so the
// out-of-core solvers stream their matrices through the simulated stack.
type Storage struct {
	node *Node
	name string
}

// NewStorage opens the named extent as an application storage client.
func (n *Node) NewStorage(name string) (*Storage, error) {
	if _, ok := n.fs.Lookup(name); !ok {
		return nil, fmt.Errorf("core: no extent %q on this node", name)
	}
	return &Storage{node: n, name: name}, nil
}

// ReadAt streams a byte range of the extent.
func (s *Storage) ReadAt(offset, size int64) {
	// Errors here mean the caller read outside its own extent; the solver
	// interface is fire-and-forget, so surface violations loudly.
	if err := s.node.Read(s.name, offset, size); err != nil {
		panic(err)
	}
}

// WriteAt stages a byte range of the extent.
func (s *Storage) WriteAt(offset, size int64) {
	if err := s.node.Write(s.name, offset, size); err != nil {
		panic(err)
	}
}
