package main

import "flux/internal/device"

// recDelta is the Selective Record activity one op caused.
type recDelta struct {
	observed, recorded, pruned uint64
	live                       float64 // live log entries per app after the op
}

// recStats sums the recorders' lifetime counters over devs.
func recStats(devs ...*device.Device) recDelta {
	var d recDelta
	for _, dev := range devs {
		st := dev.Recorder.Stats()
		d.observed += st.Observed
		d.recorded += st.Recorded
		d.pruned += st.Pruned
	}
	return d
}

// since is the activity between an earlier snapshot and d.
func (d recDelta) since(before recDelta) recDelta {
	return recDelta{
		observed: d.observed - before.observed,
		recorded: d.recorded - before.recorded,
		pruned:   d.pruned - before.pruned,
	}
}
