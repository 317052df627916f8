package device

import "testing"

// bootAllocBudget caps the objects one device.New allocates. Boot used to
// recompile constant data per device — record rule maps for every
// decorated interface, Table 2 decoration line counts, and the /system
// tree — at about 780 allocations; all of that is now built once per
// process, which leaves the per-device kernel, Binder and service state.
const bootAllocBudget = 600

// TestBootAllocBudget pins the per-boot allocation count, so constant
// catalog data does not drift back into device.New.
func TestBootAllocBudget(t *testing.T) {
	if _, err := New(Nexus4("warm")); err != nil { // builds the shared tables
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(Nexus4("n4")); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bootAllocBudget {
		t.Fatalf("device.New allocated %.0f objects, budget %d", allocs, bootAllocBudget)
	}
}

// TestSystemTreeShared: devices of one model share a single /system tree;
// different models get their own.
func TestSystemTreeShared(t *testing.T) {
	boot := func(p Profile) *Device {
		t.Helper()
		d, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := boot(Nexus4("a")), boot(Nexus4("b"))
	if a.SystemTree() != b.SystemTree() {
		t.Error("two Nexus 4 devices built separate system trees")
	}
	// The Nexus 7 (2013) has the Nexus 4's SoC and GPU but is a different
	// model, so its device-specific files hash differently.
	for _, p := range []Profile{Nexus7_2012("c"), Nexus7_2013("d")} {
		if boot(p).SystemTree() == a.SystemTree() {
			t.Errorf("%s shares the Nexus 4 system tree", p.Model)
		}
	}
}
