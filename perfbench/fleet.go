package main

import (
	"fmt"
	"math"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// fleetPolicy: a 4-minute resident horizon inside an 8-minute
// admission window, so replays reach evicted minutes and still pass
// admission.
var fleetPolicy = policy{retention: 4, lag: 8}

// replayEvery puts one replay after every 20 new records (~5%).
const replayEvery = 20

// fleetIngest is the write path: two uploaders in a closed loop send
// pre-marshalled 64-VP batches, minute after minute, into a system
// restarted over prepared history. Background work runs at minute
// boundaries. Nothing investigates inside the timed window.
func fleetIngest(b *bench) error {
	sc, pol := b.sc, fleetPolicy
	area := areaFor(sc.fleetPerMinute)
	hist, warm := int64(sc.fleetHistory), int64(sc.fleetWarm)
	first := hist + warm
	// Each repetition replays the same stream on a fresh copy.
	count := int64(math.Ceil(float64(b.seconds) * sc.fleetRate / float64(sc.fleetPerMinute) / float64(sc.reps)))
	end := first + count
	// Minutes kept for references: the period and the resident tail,
	// plus every fourth history minute (evicted long before the probes).
	kept := map[int64]bool{}
	var hot, cold []int64
	for m := end - 7; m < end; m++ {
		kept[m] = true
	}
	for m := end - 5; m < end; m++ {
		hot = append(hot, m)
	}
	for m := int64(0); m < hist; m += 4 {
		kept[m] = true
		cold = append(cold, m)
	}
	keep := func(m int64) bool { return kept[m] }
	recent := map[int64][][]byte{}
	history, err := genStream(b.seed, streamSpec{first: 0, count: hist, perMinute: sc.fleetPerMinute, area: area,
		lag: pol.lag, keep: keep}, recent)
	if err != nil {
		return err
	}
	warmup, err := genStream(b.seed, streamSpec{first: hist, count: warm, perMinute: sc.fleetPerMinute, area: area,
		replayEvery: replayEvery, lag: pol.lag}, recent)
	if err != nil {
		return err
	}
	timed, err := genStream(b.seed, streamSpec{first: first, count: count, perMinute: sc.fleetPerMinute, area: area,
		replayEvery: replayEvery, lag: pol.lag, keep: keep}, recent)
	if err != nil {
		return err
	}
	b.recordBytes = int64(len(history[0].trusted))
	golden, err := b.prepare(pol, history)
	if err != nil {
		return err
	}
	// Probes after the timed window: investigations of the resident
	// tail, of evicted minutes and across the retention boundary, then
	// incidents at fresh minutes.
	table := newRefTable(b.seed, area, probeSites)
	if err := table.add(keptProfiles(history, timed)); err != nil {
		return err
	}
	probeReqs := table.plan(b.seed, 1, sc.probeRequests, hot, cold, end-7, 0.3, 0.1, 0)
	incidents, err := b.genIncidents(minutesFrom(end, sc.probeIncidents))
	if err != nil {
		return err
	}
	b.phase("prepared inputs")

	// Probe work is split across repetitions, each its own slice.
	for rep := 0; rep < sc.reps; rep++ {
		n, ep, err := b.setup(golden, pol, hist, rep, func(n *node, ep *endpoint) error {
			_, err := b.upload(n, ep, warmup, 2)
			return err
		})
		if err != nil {
			return err
		}
		w0, a := writeBytes(), b.openWindow(n)
		st, err := b.upload(n, ep, timed, 2)
		if err != nil {
			discard(n, ep)
			return err
		}
		b.closeWindow(n, a, st.records, 0)
		b.reportUpload(st, writeBytes()-w0)
		b.reportBackground(n, st)

		quiesce()
		b.reportInvestigate(b.investigate(ep, part(probeReqs, rep, sc.reps), 2))
		repIncidents := part(incidents, rep, sc.reps)
		if err := b.incidentsAt(n, ep, repIncidents); err != nil {
			discard(n, ep)
			return err
		}
		heap, err := b.finish(n)
		if err != nil {
			discard(n, ep)
			return err
		}
		b.phase(fmt.Sprintf("repetition %d", rep))
		if rep < sc.reps-1 {
			discard(n, ep)
			b.serverHeap(heap)
			continue
		}

		hotKept := map[int64][]*vp.Profile{}
		for _, sm := range timed[len(timed)-2:] {
			hotKept[sm.minute] = sm.profiles
		}
		err = b.probeLayers(n, layerInputs{uploads: timed[:min(40, len(timed))], minutes: hotKept,
			sites: table.sites, cold: cold[:min(3, len(cold))], incident: incidents[0]})
		if err != nil {
			discard(n, ep)
			return err
		}
		b.accounted(sumDur(st.lat), st.records, int64(len(st.lat)), 0, 0)
		samples := map[int64][]*vp.Profile{}
		for _, sm := range timed {
			if sm.profiles != nil && len(samples) < 4 {
				samples[sm.minute] = sm.profiles
			}
		}
		probeVPs := 0
		for _, inc := range repIncidents {
			probeVPs += len(inc.md.ids) + len(inc.waves)*sc.fakes
		}
		ep.stop()
		if err := b.checkDurable(n, ackedIDs(history, warmup, timed), probeVPs, samples); err != nil {
			return err
		}
		b.serverHeap(heap)
	}
	return nil
}

// ackedIDs lists every acknowledged identifier by minute.
func ackedIDs(parts ...[]*streamMinute) map[int64][]vd.VPID {
	out := map[int64][]vd.VPID{}
	for _, p := range parts {
		for _, sm := range p {
			out[sm.minute] = sm.ids
		}
	}
	return out
}

// reportUpload sets the upload metrics of a timed phase. It keeps
// each checkpoint-aligned segment (see segments) for the throughput,
// which reduce computes once every repetition has run.
func (b *bench) reportUpload(st *uploadStats, written int64) {
	b.mu.Lock()
	for k, s := range st.segments(checkpointEvery) {
		b.segRecords[k] = s.records
		b.segDurs[k] = append(b.segDurs[k], s.dur)
	}
	b.mu.Unlock()
	b.set("upload_p50_ms", p50ms(st.lat), "ms")
	b.layerSet("upload_p99_ms", quantileMS(st.lat, 0.99), "ms")
	if written >= 0 {
		b.set("write_bytes_per_vp_byte", float64(written)/float64(st.bytes), "ratio")
	}
}

// finish takes the end-of-repetition measurements: a final driven
// checkpoint for the on-disk footprint, then the live heap, which it
// returns for serverHeap.
func (b *bench) finish(n *node) (float64, error) {
	if err := n.settle(); err != nil {
		return 0, err
	}
	if err := n.checkpoint(); err != nil {
		return 0, err
	}
	disk, err := dirBytes(n.dir)
	if err != nil {
		return 0, err
	}
	live := int64(n.sys.Store().Len())
	b.set("disk_bytes_per_vp_byte", float64(disk)/float64(live*b.recordBytes), "ratio")
	return heapLiveMB(), nil
}

// serverHeap sets heap_live_mb once a repetition's system is gone:
// the live heap finish measured minus the live heap now, so the
// benchmark's own inputs, live in both, cancel out.
func (b *bench) serverHeap(withServer float64) {
	b.set("heap_live_mb", withServer-heapLiveMB(), "MB")
}

// checkDurable crashes the system and reopens its directory. Every
// acknowledged VP must survive: the recovered store must count exactly
// the expected identifiers, and every identifier of the minutes that
// were resident at the crash (snapshot and WAL tail) and of sampled
// evicted minutes must be present. Sampled minutes' served viewmaps
// must match core.Build.
func (b *bench) checkDurable(n *node, acked map[int64][]vd.VPID, extra int, samples map[int64][]*vp.Profile) error {
	expected := extra
	for _, ids := range acked {
		expected += len(ids)
	}
	check := map[int64]bool{}
	for _, sh := range n.sys.Store().ShardStats() {
		check[sh.Minute] = true
	}
	for m := range samples {
		check[m] = true
	}
	n.sys.Abort()
	re, err := openNode(n.dir, n.pol, b.bank, n.clock.minute.Load())
	if err != nil {
		return err
	}
	defer re.sys.Abort()
	store := re.sys.Store()
	b.count(1, 0)
	if got := store.Len(); got != expected {
		b.wrongf("recovered store holds %d VPs, %d were acknowledged", got, expected)
	}
	for m := range check {
		ids, ok := acked[m]
		if !ok {
			continue
		}
		have := map[vd.VPID]bool{}
		for _, p := range store.Minute(m) {
			have[p.ID()] = true
		}
		b.count(1, 0)
		missing := 0
		for _, id := range ids {
			if !have[id] {
				missing++
			}
		}
		if missing > 0 {
			b.wrongf("minute %d lost %d acknowledged VPs across crash and recovery", m, missing)
		}
	}
	for m, ps := range samples {
		site := geo.RectAround(areaFor(b.sc.fleetPerMinute).Center(), 300)
		b.count(1, 0)
		served, err := store.ViewmapFor(site, m)
		if err != nil {
			b.wrongf("sampled minute %d: %v", m, err)
			continue
		}
		ref, err := core.Build(ps, core.BuildConfig{Site: site, Minute: m, RequirePlausible: true})
		if err != nil {
			return err
		}
		if served.Len() != ref.Len() || served.NumEdges() != ref.NumEdges() {
			b.wrongf("sampled minute %d: served viewmap %d/%d members/edges, core.Build %d/%d",
				m, served.Len(), served.NumEdges(), ref.Len(), ref.NumEdges())
		}
	}
	return nil
}

// reportBackground sets the per-layer metrics of the driven background
// cycle.
func (b *bench) reportBackground(n *node, st *uploadStats) {
	n.bgMu.Lock()
	defer n.bgMu.Unlock()
	b.layerSet("server.checkpoints", float64(n.checkpoints), "count")
	b.layerSet("server.evictions", float64(n.evictions), "count")
	b.layerSet("server.checkpoint_ms", ms(medianDur(n.checkpointDur)), "ms")
	var mb float64
	for _, x := range n.checkpointBytes {
		mb += float64(x) / (1 << 20)
	}
	if len(n.checkpointBytes) > 0 {
		mb /= float64(len(n.checkpointBytes))
	}
	b.layerSet("server.checkpoint_mb", mb, "MB")
	b.layerSet("server.evict_ms", ms(medianDur(n.evictDur)), "ms")
	// The worst ack among batches in flight across a checkpoint.
	var stall time.Duration
	for _, w := range n.ckptWindows {
		if st == nil {
			break
		}
		for _, a := range st.acks {
			if a.sent.Before(w[1]) && a.got.After(w[0]) && a.got.Sub(a.sent) > stall {
				stall = a.got.Sub(a.sent)
			}
		}
	}
	b.layerSet("server.checkpoint_stall_ms", ms(stall), "ms")
}
