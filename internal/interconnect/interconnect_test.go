package interconnect

import (
	"math"
	"strings"
	"testing"

	"oocnvm/internal/sim"
)

func TestPCIeLaneRates(t *testing.T) {
	// Gen2: 5 GT/s with 8b/10b -> 500 MB/s payload per lane.
	if got := PCIeGen2.LaneBytesPerSec(); got != 500e6 {
		t.Fatalf("gen2 lane = %v, want 500e6", got)
	}
	// Gen3: 8 GT/s with 128b/130b -> ~984.6 MB/s per lane.
	got := PCIeGen3.LaneBytesPerSec()
	if math.Abs(got-984.615e6) > 1e5 {
		t.Fatalf("gen3 lane = %v, want ~984.6e6", got)
	}
}

func TestEncodingOverheads(t *testing.T) {
	// The paper's §3.3: 8b/10b wastes 25% extra (payload = 80% of raw);
	// 128b/130b overhead is just ~1.5%.
	g2 := float64(PCIeGen2.EncodingNum) / float64(PCIeGen2.EncodingDen)
	g3 := float64(PCIeGen3.EncodingNum) / float64(PCIeGen3.EncodingDen)
	if g2 != 0.8 {
		t.Fatalf("gen2 encoding efficiency = %v, want 0.8", g2)
	}
	if g3 < 0.984 || g3 > 0.985 {
		t.Fatalf("gen3 encoding efficiency = %v, want ~0.9846", g3)
	}
}

func TestBridgePenalty(t *testing.T) {
	bridged := PCIeConfig{Gen: PCIeGen2, Lanes: 8, Bridged: true}
	native := PCIeConfig{Gen: PCIeGen2, Lanes: 8, Bridged: false}
	if bridged.EffectiveBytesPerSec() >= native.EffectiveBytesPerSec() {
		t.Fatal("bridged attachment must lose bandwidth to re-encoding")
	}
	if bridged.RequestOverhead() <= native.RequestOverhead() {
		t.Fatal("bridged attachment must add per-request latency")
	}
}

func TestLaneScaling(t *testing.T) {
	x8 := PCIeConfig{Gen: PCIeGen3, Lanes: 8}
	x16 := PCIeConfig{Gen: PCIeGen3, Lanes: 16}
	if r := x16.EffectiveBytesPerSec() / x8.EffectiveBytesPerSec(); r != 2 {
		t.Fatalf("16/8 lane ratio = %v, want 2", r)
	}
}

func TestPCIeConfigString(t *testing.T) {
	s := PCIeConfig{Gen: PCIeGen2, Lanes: 8, Bridged: true}.String()
	if !strings.Contains(s, "PCIe2.0") || !strings.Contains(s, "x8") || !strings.Contains(s, "bridged") {
		t.Fatalf("String() = %q", s)
	}
}

func TestLineSerializesTransfers(t *testing.T) {
	l := NewLine("test", 1e6, 0) // 1 MB/s
	e1 := l.Transfer(0, 1e6)     // one second
	if e1 != sim.Second {
		t.Fatalf("first transfer ends at %v, want 1s", e1)
	}
	e2 := l.Transfer(0, 1e6)
	if e2 != 2*sim.Second {
		t.Fatalf("second transfer must queue: ends at %v, want 2s", e2)
	}
	if l.Busy() != 2*sim.Second {
		t.Fatalf("busy = %v", l.Busy())
	}
}

func TestInfiniteLink(t *testing.T) {
	var inf Infinite
	if inf.Transfer(42, 1<<40) != 42 {
		t.Fatal("infinite link must be instantaneous")
	}
	if inf.RequestOverhead() != 0 {
		t.Fatal("infinite link has overhead")
	}
}

func TestChainSeriesBandwidth(t *testing.T) {
	fast := NewLine("fast", 10e6, 1*sim.Microsecond)
	slow := NewLine("slow", 1e6, 2*sim.Microsecond)
	c := NewChain(fast, slow)
	if got := c.BytesPerSec(); got != 1e6 {
		t.Fatalf("chain bandwidth = %v, want bottleneck 1e6", got)
	}
	if got := c.RequestOverhead(); got != 3*sim.Microsecond {
		t.Fatalf("chain overhead = %v, want 3us", got)
	}
	// A transfer passes through both stages in series.
	end := c.Transfer(0, 1e6)
	if end < sim.Second {
		t.Fatalf("chained transfer ended at %v, before the slow stage could finish", end)
	}
}

func TestQDRInfiniBandEnvelope(t *testing.T) {
	n := QDR4XInfiniBand()
	raw := n.SignalGbps * 1e9 / 8 * float64(n.EncodingNum) / float64(n.EncodingDen)
	if raw != 4e9 {
		t.Fatalf("QDR 4X data rate = %v, want 4 GB/s (Figure 3)", raw)
	}
	eff := n.EffectiveBytesPerSec()
	if eff >= raw {
		t.Fatal("effective rate must be below the port rate (protocol + sharing)")
	}
	if eff < 0.5e9 || eff > 2e9 {
		t.Fatalf("effective per-SSD rate %v outside the calibrated band", eff)
	}
}

func TestIONPathSlowerThanLocal(t *testing.T) {
	pcie := PCIeConfig{Gen: PCIeGen2, Lanes: 8, Bridged: true}
	local := NewPCIeLine(pcie)
	remote := IONPath(pcie, QDR4XInfiniBand())
	if remote.BytesPerSec() >= local.BytesPerSec() {
		t.Fatal("the ION path cannot be faster than the local attachment")
	}
	if remote.RequestOverhead() <= local.RequestOverhead() {
		t.Fatal("the ION path must add network round-trip overhead")
	}
}

func TestNetworkGenerations(t *testing.T) {
	for _, n := range []NetworkParams{QDR4XInfiniBand(), FibreChannel8G()} {
		if n.EffectiveBytesPerSec() <= 0 {
			t.Errorf("%s effective rate not positive", n.Name)
		}
		line := NewNetworkLine(n)
		if line.name != n.Name {
			t.Errorf("line name %q != %q", line.name, n.Name)
		}
	}
}
