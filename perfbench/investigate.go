package main

import (
	"fmt"
	"math"

	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// incidentInvestigate is the read path: two authorities in a closed
// loop run a seeded mix of fresh-site investigations on resident
// minutes, investigations of evicted minutes, and 5-minute periods
// across the retention boundary, over a system restarted on 60
// minutes of paper-scale history. Every request names a never-asked
// site, so the 64-entry verdict cache never answers, and cold
// requests cycle through 40-odd evicted minutes against a 2-minute
// cold cap, so each one reloads its segment.
func incidentInvestigate(b *bench) error {
	sc := b.sc
	pol := policy{retention: sc.invRetention, lag: 8}
	area := areaFor(sc.invPerMinute)
	hist := int64(sc.invHistory)
	// History is generated, referenced and ingested ten minutes at a
	// time, so decoded profiles never pile up.
	recent := map[int64][][]byte{}
	table := newRefTable(b.seed, area, sc.invSites)
	g, err := b.openGolden(pol, 0)
	if err != nil {
		return err
	}
	var history []*streamMinute
	// The last two minutes stay decoded for the traced run's
	// extraction probe.
	traceMinutes := map[int64][]*vp.Profile{}
	for first := int64(0); first < hist; first += 10 {
		chunk, err := genStream(b.seed, streamSpec{first: first, count: min(10, hist-first), perMinute: sc.invPerMinute,
			area: area, lag: pol.lag, keep: func(int64) bool { return true }}, recent)
		if err == nil {
			err = table.add(keptProfiles(chunk))
		}
		if err == nil {
			err = g.ingest(chunk)
		}
		if err != nil {
			g.close()
			return err
		}
		for _, sm := range chunk {
			if sm.minute >= hist-2 {
				traceMinutes[sm.minute] = sm.profiles
			}
			sm.profiles, sm.bodies = nil, nil
		}
		history = append(history, chunk...)
	}
	b.recordBytes = int64(len(history[0].trusted))
	golden, err := g.close()
	if err != nil {
		return err
	}
	b.phase("prepared history")
	// Set-up advances the clock to minute hist, whose retention sweep
	// leaves exactly the last retention minutes resident (recovery
	// alone restores whatever the snapshot held).
	boundary := hist - int64(pol.retention) // first resident minute
	var hot, cold []int64
	for m := boundary; m < hist; m++ {
		hot = append(hot, m)
	}
	for m := int64(0); m < boundary-3; m++ {
		cold = append(cold, m)
	}
	period := boundary - 3
	count := int(math.Ceil(float64(b.seconds) * sc.invRate))
	warmReqs := table.plan(b.seed, 2, sc.invWarm, hot, cold, period, 0.3, 0.1, 1<<17)
	timedReqs := table.plan(b.seed, 3, count, hot, cold, period, 0.3, 0.1, 0)

	// Probes: closed-loop uploads at fleet density into fresh minutes,
	// then incidents after them. Every repetition works its own slice
	// of the requests, the same upload minutes and its own incidents.
	probeArea := areaFor(b.sc.fleetPerMinute)
	uploadMinutes := int64(sc.probeUploadMinutes / sc.reps)
	uploads, err := genStream(b.seed, streamSpec{first: hist, count: uploadMinutes,
		perMinute: sc.fleetPerMinute, area: probeArea, replayEvery: replayEvery, lag: pol.lag}, recent)
	if err != nil {
		return err
	}
	incidents, err := b.genIncidents(minutesFrom(hist+uploadMinutes, sc.probeIncidents))
	if err != nil {
		return err
	}

	for rep := 0; rep < sc.reps; rep++ {
		n, ep, err := b.setup(golden, pol, hist-1, rep, func(n *node, ep *endpoint) error {
			if err := n.tick(hist); err != nil {
				return err
			}
			if err := n.settle(); err != nil {
				return err
			}
			b.investigate(ep, warmReqs, 2)
			return nil
		})
		if err != nil {
			return err
		}

		r0, a := n.sys.Store().RetentionStatsSnapshot(), b.openWindow(n)
		st, start := b.investigate(ep, part(timedReqs, rep, sc.reps), 2)
		hotN, coldN, periodN := int64(len(st.lat[hotReq])), int64(len(st.lat[coldReq])), int64(len(st.lat[periodReq]))
		b.closeWindow(n, a, 0, hotN+coldN+5*periodN)
		b.reportInvestigate(st, start)
		b.layerSet("server.reloads", float64(reloads(r0, n.sys.Store().RetentionStatsSnapshot())), "count")
		b.reportBackground(n, nil)

		quiesce()
		w0 := writeBytes()
		ust, err := b.upload(n, ep, uploads, 2)
		if err != nil {
			discard(n, ep)
			return err
		}
		b.reportUpload(ust, writeBytes()-w0)
		if err := b.incidentsAt(n, ep, part(incidents, rep, sc.reps)); err != nil {
			discard(n, ep)
			return err
		}
		heap, err := b.finish(n)
		if err != nil {
			discard(n, ep)
			return err
		}
		b.phase(fmt.Sprintf("repetition %d", rep))
		if rep == sc.reps-1 {
			err = b.probeLayers(n, layerInputs{uploads: uploads[:min(40, len(uploads))], minutes: traceMinutes,
				sites: table.sites, cold: cold[:min(3, len(cold))], incident: incidents[0]})
			b.accounted(sumDur(st.lat[hotReq])+sumDur(st.lat[coldReq])+sumDur(st.lat[periodReq]), 0, 0,
				hotN+2*periodN, coldN+3*periodN)
		}
		discard(n, ep)
		if err != nil {
			return err
		}
		b.serverHeap(heap)
	}
	return nil
}

// reloads is the number of segment reloads between two retention
// snapshots of a window without a retention sweep: every reload
// installs one cold-resident shard, and without a sweep a cold shard
// leaves residency only through the eviction that makes room for a
// later reload.
func reloads(before, after server.RetentionStats) int64 {
	return after.Evictions - before.Evictions + int64(after.ColdResident-before.ColdResident)
}
