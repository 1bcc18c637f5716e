package config

import "testing"

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"Cores", c.Cores, 64},
		{"IssueWidth", c.IssueWidth, 6},
		{"PipelineDepth", c.PipelineDepth, 13},
		{"ROBEntries", c.ROBEntries, 160},
		{"IQEntries", c.IQEntries, 64},
		{"LQEntries", c.LQEntries, 48},
		{"SQEntries", c.SQEntries, 32},
		{"L1DLatency", c.L1DLatency, 2},
		{"L1DSize", c.L1DSize, 32 << 10},
		{"L1DAssoc", c.L1DAssoc, 4},
		{"L2Latency", c.L2Latency, 15},
		// 256 KB/core in the paper, scaled with the workload footprints
		// to preserve the footprint:LLC ratio (DESIGN.md §5).
		{"L2SliceSize", c.L2SliceSize, 32 << 10},
		{"L2Assoc", c.L2Assoc, 16},
		{"LineSize", c.LineSize, 64},
		{"LinkLatency", c.LinkLatency, 1},
		{"RouterLatency", c.RouterLatency, 1},
		{"SPMLatency", c.SPMLatency, 2},
		{"SPMSize", c.SPMSize, 32 << 10},
		{"DMACmdQueue", c.DMACmdQueue, 32},
		{"DMABusQueue", c.DMABusQueue, 512},
		{"SPMDirEntries", c.SPMDirEntries, 32},
		{"FilterEntries", c.FilterEntries, 48},
		{"FilterDirEntries", c.FilterDirEntries, 4 << 10},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestForSystemFairnessRule(t *testing.T) {
	cb := ForSystem(CacheBased)
	if cb.L1DSize != 64<<10 {
		t.Fatalf("cache-based L1D = %d, want 64KB", cb.L1DSize)
	}
	if cb.L1DLatency != Default().L1DLatency {
		t.Fatal("fairness rule must not change L1D latency")
	}
	if cb.HasSPM() {
		t.Fatal("cache-based system must not have SPMs")
	}
	hy := ForSystem(HybridReal)
	if hy.L1DSize != 32<<10 || !hy.HasSPM() {
		t.Fatalf("hybrid L1D = %d, HasSPM = %v", hy.L1DSize, hy.HasSPM())
	}
	if err := cb.Validate(); err != nil {
		t.Fatalf("cache-based invalid: %v", err)
	}
}

func TestIdealCoherence(t *testing.T) {
	if !ForSystem(HybridIdeal).IdealCoherence() {
		t.Fatal("HybridIdeal must report ideal coherence")
	}
	if ForSystem(HybridReal).IdealCoherence() {
		t.Fatal("HybridReal must not report ideal coherence")
	}
	if ForSystem(CacheBased).IdealCoherence() {
		t.Fatal("CacheBased must not report ideal coherence")
	}
}

func TestSmallTestValid(t *testing.T) {
	c := SmallTest()
	if err := c.Validate(); err != nil {
		t.Fatalf("SmallTest invalid: %v", err)
	}
	if c.Cores != 4 || c.MeshWidth*c.MeshHeight != 4 {
		t.Fatalf("SmallTest geometry: %d cores, %dx%d", c.Cores, c.MeshWidth, c.MeshHeight)
	}
}

func TestValidateRejectsBadMesh(t *testing.T) {
	c := Default()
	c.MeshWidth = 7
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted 7x8 mesh for 64 cores")
	}
}

func TestValidateRejectsMoreMemControllersThanNodes(t *testing.T) {
	c := ForSystem(CacheBased)
	c.MemControllers = c.MeshWidth * c.MeshHeight
	if err := c.Validate(); err != nil {
		t.Fatalf("one controller per node rejected: %v", err)
	}
	c.MemControllers++
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted more memory controllers than mesh nodes")
	}
}

func TestValidateRejectsBadLineSize(t *testing.T) {
	c := Default()
	c.LineSize = 48
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted non-power-of-two line size")
	}
}

func TestValidateRejectsNonPow2Sets(t *testing.T) {
	c := Default()
	c.L1DSize = 3 << 10 // 3KB/4-way/64B = 12 sets
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted non-power-of-two set count")
	}
}

// TestValidateCapsWays: every associativity knob and the fully associative
// TLB's entry count become a cache.NewArray way count, which panics past
// 64. Validate accepts 64 ways and rejects 65, even where the set count
// stays a power of two (65 ways of 64 B in 33,280 B is 8 sets).
func TestValidateCapsWays(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(c *Config, ways int)
	}{
		{"TLBEntries", func(c *Config, w int) { c.TLBEntries = w }},
		{"L1IAssoc", func(c *Config, w int) { c.L1IAssoc, c.L1ISize = w, 8*w*c.LineSize }},
		{"L1DAssoc", func(c *Config, w int) { c.L1DAssoc, c.L1DSize = w, 8*w*c.LineSize }},
		{"L2Assoc", func(c *Config, w int) { c.L2Assoc, c.L2SliceSize = w, 8*w*c.LineSize }},
	} {
		c := Default()
		tc.set(&c, 64)
		if err := c.Validate(); err != nil {
			t.Errorf("Validate rejected %s = 64: %v", tc.name, err)
		}
		c = Default()
		tc.set(&c, 65)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %s = 65", tc.name)
		}
	}
}

func TestValidateRejectsZeroQueues(t *testing.T) {
	c := Default()
	c.DMACmdQueue = 0
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted zero DMA command queue")
	}
}

func TestValidateCacheBasedIgnoresSPMFields(t *testing.T) {
	c := ForSystem(CacheBased)
	c.SPMSize = 0 // irrelevant without SPMs
	c.SPMDirEntries = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("cache-based config should ignore SPM fields: %v", err)
	}
}

func TestSystemString(t *testing.T) {
	for sys, want := range map[MemorySystem]string{
		CacheBased:  "cache",
		HybridIdeal: "hybrid-ideal",
		HybridReal:  "hybrid",
	} {
		if sys.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(sys), sys.String(), want)
		}
	}
}
