package pairing_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"flux/internal/android"
	"flux/internal/device"
	"flux/internal/pairing"
	"flux/internal/rsyncx"
)

// TestPairLeavesSystemTreesUnchanged: pairing only reads the system
// partitions, which devices of one model share read-only.
func TestPairLeavesSystemTreesUnchanged(t *testing.T) {
	home, guest := twoDevices(t)
	installOne(t, home, "com.example.a", 2)
	before := [][]rsyncx.File{
		slices.Clone(home.SystemTree().Files()),
		slices.Clone(guest.SystemTree().Files()),
	}
	if _, err := pairing.Pair(home, guest, []string{"com.example.a"}); err != nil {
		t.Fatal(err)
	}
	for i, d := range []*device.Device{home, guest} {
		if !slices.Equal(d.SystemTree().Files(), before[i]) {
			t.Errorf("pairing changed %s's system tree", d.Name())
		}
	}
}

// TestConcurrentBootAndPair boots and pairs device pairs from several
// goroutines at once; every pair reads the same shared system trees.
// Run under -race.
func TestConcurrentBootAndPair(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	results := make([]pairing.Result, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = bootAndPair(w)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if results[w] != results[0] {
			t.Errorf("worker %d paired differently: %+v vs %+v", w, results[w], results[0])
		}
	}
}

func bootAndPair(w int) (pairing.Result, error) {
	home, err := device.New(device.Nexus7_2012(fmt.Sprintf("home-%d", w)))
	if err != nil {
		return pairing.Result{}, err
	}
	guest, err := device.New(device.Nexus7_2013(fmt.Sprintf("guest-%d", w)))
	if err != nil {
		return pairing.Result{}, err
	}
	const pkg = "com.example.a"
	if err := home.InstallApp(&device.Install{
		Spec: android.AppSpec{Package: pkg, MainActivity: "M", HeapBytes: 1 << 20, HeapEntropy: 0.5},
		APK: rsyncx.File{Path: "/data/app/" + pkg + ".apk", Size: 2 << 20,
			Hash: device.HashContent(pkg, "apk-v1"), Entropy: 0.95},
		DataDir: rsyncx.NewTree(),
	}); err != nil {
		return pairing.Result{}, err
	}
	return pairing.Pair(home, guest, []string{pkg})
}
