package main

import (
	"fmt"
	"strconv"
	"strings"

	"flux/internal/apps"
	"flux/internal/chunkstore"
	"flux/internal/device"
	"flux/internal/experiments"
	"flux/internal/faults"
	"flux/internal/migration"
	"flux/internal/obs"
	"flux/internal/pairing"
)

const (
	// commuterHopsPerSecond sets the itinerary: each route makes
	// seconds × commuterHopsPerSecond hops. The count depends only on
	// the flags, never on how fast the hops run, so a per-hop slow-down
	// shows as a slope instead of as fewer hops.
	commuterHopsPerSecond = 150
	// commuterDirtyRate and commuterRewrite shape the DirtySegments step
	// between hops (the commuter experiment's defaults).
	commuterDirtyRate = 0.10
	commuterRewrite   = 0.5
	// commuterStoreBudget bounds each device's chunk store in raw bytes:
	// room for the app's 28 MiB image plus some of the stale generations
	// the dirty steps leave behind, so LRU eviction runs on every hop
	// while nearly every chunk still hits. (At 24 MiB the image no longer
	// fits and every lookup misses; unbounded, the stores grow by about
	// 28 MiB a hop.)
	commuterStoreBudget = 32 << 20
	// commuterPrefix is how many hops per route verify re-runs on
	// freshly set-up devices; they must repeat the window's digests.
	commuterPrefix = 8
	// commuterChainEvery is how often (in hops) a route's running
	// digest is checked against the stored references.
	commuterChainEvery = 100
)

// commuterRoute is one Figure-12 pair carrying the app back and forth.
type commuterRoute struct {
	idx                   int
	pair                  experiments.Pair
	home, guest           *device.Device
	homeStore, guestStore *chunkstore.Store
	chain                 vdigest
}

type commuterInst struct {
	env    *env
	app    apps.App
	hops   int
	routes []*commuterRoute
	own    [][]int // worker → indices of the routes it drives
}

func commuterHops(seconds int) int { return seconds * commuterHopsPerSecond }

func setupCommuter(e *env, sp *obs.Span) (instance, error) {
	c := &commuterInst{env: e, app: experiments.CommuterApp(), hops: commuterHops(e.seconds)}
	routes, err := commuterRoutes(c.app, sp)
	if err != nil {
		return nil, err
	}
	c.routes = routes
	c.own = make([][]int, e.workers)
	for i := range routes {
		c.own[i%e.workers] = append(c.own[i%e.workers], i)
	}
	return c, nil
}

// commuterRoutes boots, pairs and launches every Figure-12 pair once.
func commuterRoutes(app apps.App, sp *obs.Span) ([]*commuterRoute, error) {
	var routes []*commuterRoute
	for i, p := range experiments.Figure12Pairs() {
		r := &commuterRoute{idx: i, pair: p, chain: newDigest()}
		var err error
		if r.home, err = bootDevice(sp, p.Home("home")); err != nil {
			return nil, err
		}
		if r.guest, err = bootDevice(sp, p.Guest("guest")); err != nil {
			return nil, err
		}
		if _, err = call(sp, "apps.Install", func() (any, error) { return nil, apps.Install(r.home, app) }); err != nil {
			return nil, err
		}
		if _, err = call(sp, "pairing.Pair", func() (pairing.Result, error) {
			return pairing.Pair(r.home, r.guest, []string{app.Spec.Package})
		}); err != nil {
			return nil, err
		}
		if _, err = call(sp, "apps.Launch", func() (*apps.Session, error) { return apps.Launch(r.home, app) }); err != nil {
			return nil, err
		}
		r.homeStore = chunkstore.New(commuterStoreBudget)
		r.guestStore = chunkstore.New(commuterStoreBudget)
		routes = append(routes, r)
	}
	return routes, nil
}

func (c *commuterInst) fixedOps(w int) int64 { return int64(len(c.own[w]) * c.hops) }

// op is hop i/len(own)+1 of one of the worker's routes, taken in
// round-robin order so every route advances through the itinerary
// together.
func (c *commuterInst) op(w int, i int64, root *obs.Span) opOut {
	own := c.own[w]
	r := c.routes[own[i%int64(len(own))]]
	hop := int(i/int64(len(own))) + 1
	var before recDelta
	if root != nil {
		before = recStats(r.home, r.guest)
	}
	clock := startOp()
	rep, endMS, err := c.hop(r, hop, root)
	out := clock.stop()
	out.hop = hop
	if err != nil {
		c.env.check.fail("commuter/pair%d hop %d: %v", r.idx, hop, err)
		return out
	}
	out.ok = c.checkHop(r, hop, rep, endMS)
	if root != nil {
		out.reps = []*migration.Report{rep}
		out.rec = recStats(r.home, r.guest).since(before)
		dst := r.guest
		if hop%2 == 0 {
			dst = r.home
		}
		out.rec.live = float64(dst.Recorder.Log().Len())
	}
	return out
}

// hop migrates the app across r (home→guest on odd hops) with the
// delta, pipelined and verified-log paths on, then dirties part of its
// memory unless the itinerary is over. endMS is the destination's
// virtual clock, in Unix ms, when the migration returned.
func (c *commuterInst) hop(r *commuterRoute, hop int, parent *obs.Span) (rep *migration.Report, endMS int64, err error) {
	src, dst := r.home, r.guest
	opts := migration.Options{Pipelined: true, VerifyLog: true, Cache: r.guestStore, SourceCache: r.homeStore}
	if hop%2 == 0 {
		src, dst = r.guest, r.home
		opts.Cache, opts.SourceCache = r.homeStore, r.guestStore
	}
	if rep, err = migrate(parent, src, dst, c.app.Spec.Package, opts); err != nil {
		return nil, 0, err
	}
	endMS = dst.Kernel.Clock().Now().UnixMilli()
	if hop < c.hops {
		seed := faults.Derive(c.env.seed, c.app.Spec.Package, r.pair.Name, fmt.Sprintf("hop%d", hop))
		_, _ = call(parent, "kernel.Process.DirtySegments", func() (int64, error) {
			return rep.App.Process().DirtySegments(commuterDirtyRate, commuterRewrite, seed), nil
		})
	}
	return rep, endMS, nil
}

// stateConsistentBy is Report.StateConsistent for a migration that ended
// at endMS on the destination's virtual clock. An alarm in the
// checkpoint state that was due by then has fired on the destination
// (the alarm service deletes fired alarms), so it may be missing
// afterwards; every other key must match exactly. A long itinerary
// crosses the trigger time of the alarm the app sets at launch, and
// StateConsistent, which ignores the clock, flags that hop.
func stateConsistentBy(rep *migration.Report, endMS int64) bool {
	for k, v := range rep.StateAfter {
		if rep.StateBefore[k] != v {
			return false
		}
	}
	for k, v := range rep.StateBefore {
		if after, ok := rep.StateAfter[k]; ok {
			if after != v {
				return false
			}
			continue
		}
		at, err := strconv.ParseInt(v, 10, 64)
		if !strings.HasPrefix(k, "alarm/alarm.") || err != nil || at > endMS {
			return false
		}
	}
	return true
}

// checkHop gates one hop: consistent service state, the per-hop digest
// for the first hops, and the route's running digest every
// commuterChainEvery hops and at the end.
func (c *commuterInst) checkHop(r *commuterRoute, hop int, rep *migration.Report, endMS int64) bool {
	key := fmt.Sprintf("commuter/pair%d", r.idx)
	if !stateConsistentBy(rep, endMS) {
		c.env.check.fail("%s hop %d: service state diverged", key, hop)
		return false
	}
	d := reportDigest(rep)
	ok := true
	if hop <= commuterPrefix {
		ok = c.env.check.check(fmt.Sprintf("%s/hop%04d", key, hop), d)
	}
	r.chain.ints(int64(d))
	if hop%commuterChainEvery == 0 || hop == c.hops {
		ok = c.env.check.check(fmt.Sprintf("%s/chain%05d", key, hop), r.chain) && ok
	}
	return ok
}

// verify re-runs the first hops of every route on fresh devices; each
// must reproduce the window's digest for the same hop.
func (c *commuterInst) verify() error {
	routes, err := commuterRoutes(c.app, nil)
	if err != nil {
		return err
	}
	for _, r := range routes {
		for hop := 1; hop <= min(commuterPrefix, c.hops); hop++ {
			rep, _, err := c.hop(r, hop, nil)
			if err != nil {
				return fmt.Errorf("commuter re-run pair%d hop %d: %w", r.idx, hop, err)
			}
			c.env.check.check(fmt.Sprintf("commuter/pair%d/hop%04d", r.idx, hop), reportDigest(rep))
		}
	}
	return nil
}

// layerExtras reports the chunk stores' evictions over the itinerary and
// their resident size at its end.
func (c *commuterInst) layerExtras(m map[string]float64) {
	var evictions int
	var resident int64
	for _, r := range c.routes {
		for _, s := range []*chunkstore.Store{r.homeStore, r.guestStore} {
			evictions += s.Stats().Evictions
			resident += s.SizeBytes()
		}
	}
	m["chunkstore.evictions_per_op"] = float64(evictions) / float64(len(c.routes)*c.hops)
	m["chunkstore.resident_mb"] = float64(resident) / float64(2*len(c.routes)) / (1 << 20)
}
