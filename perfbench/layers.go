package main

import (
	crand "crypto/rand"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// The traced run's layer probes: after the workload, the benchmark
// calls each layer's public functions itself, on the run's own
// inputs, inside spans. A probe root span parents the calls it times.

// layerInputs are the parts of a run the probes replay.
type layerInputs struct {
	// uploads is a sample of upload minutes in ingest order.
	uploads []*streamMinute
	// minutes holds decoded minutes for extraction and cold TrustRank,
	// sites the sites investigated there.
	minutes map[int64][]*vp.Profile
	sites   []geo.Rect
	// cold lists minutes evicted on the node, for the reload cost.
	cold []int64
	// incident drives the patch, warm TrustRank, evidence and reward
	// probes.
	incident *incident
}

// probeLayers runs every probe and sets the per-layer metrics. Each
// workload also reports its window counters (window) and accounted
// time (accounted).
func (b *bench) probeLayers(n *node, in layerInputs) error {
	if b.tr == nil {
		return nil
	}
	records, batchesN, err := b.probeDecodeLink(in.uploads)
	if err != nil {
		return err
	}
	if err := b.probeIngestPaths(in.uploads, records, batchesN); err != nil {
		return err
	}
	if err := b.probeExtract(in.minutes, in.sites); err != nil {
		return err
	}
	if err := b.probePatch(in.incident); err != nil {
		return err
	}
	if err := b.probeReload(n, in.cold, in.sites); err != nil {
		return err
	}
	return b.probeEvidence(in.incident)
}

// probeDecodeLink times the decode the server runs on every body
// (SplitBatch, PeekRecordMinute, BatchArena.Unmarshal, Validate) and
// the link stage (IncrementalBuilder.Stage, CommitStaged) per minute
// in ingest order.
func (b *bench) probeDecodeLink(uploads []*streamMinute) (records, batchesN int, err error) {
	tr := b.tr
	root := tr.start("probe.vp", 0)
	var m0, m1 runtime.MemStats
	decoded := make([][][]*vp.Profile, len(uploads))
	runtime.ReadMemStats(&m0)
	for i, sm := range uploads {
		for _, body := range sm.bodies {
			id := tr.start("vp.decode", root)
			recs, err := vp.SplitBatch(body, 1<<16)
			if err != nil {
				return 0, 0, err
			}
			counts := map[int64]int{}
			for _, rec := range recs {
				m, _ := vp.PeekRecordMinute(rec)
				counts[m]++
			}
			arenas := map[int64]*vp.BatchArena{}
			ps := make([]*vp.Profile, 0, len(recs))
			for _, rec := range recs {
				m, _ := vp.PeekRecordMinute(rec)
				a := arenas[m]
				if a == nil {
					a = vp.NewBatchArena(counts[m])
					arenas[m] = a
				}
				p, err := a.Unmarshal(rec)
				if err != nil {
					return 0, 0, err
				}
				if err := p.Validate(); err != nil {
					return 0, 0, err
				}
				ps = append(ps, p)
			}
			tr.stop(id)
			decoded[i] = append(decoded[i], ps)
			records += len(recs)
			batchesN++
		}
	}
	runtime.ReadMemStats(&m1)
	tr.stop(root)
	b.layerSet("vp.decode_us_per_vp", 1e3*ms(tr.self("vp.decode"))/float64(records), "us")
	b.layerSet("vp.allocs_per_vp", float64(m1.Mallocs-m0.Mallocs)/float64(records), "count")

	root = tr.start("probe.core.link", 0)
	var staged, edges, members int
	for i, sm := range uploads {
		bl := core.NewIncrementalBuilder(core.IncrementalConfig{Minute: sm.minute, RequirePlausible: true})
		t, err := vp.Unmarshal(sm.trusted)
		if err != nil {
			return 0, 0, err
		}
		t.Trusted = true
		if _, err := bl.Add(t); err != nil {
			return 0, 0, err
		}
		for _, ps := range decoded[i] {
			id := tr.start("core.link", root)
			for _, p := range ps {
				if p.Minute() != sm.minute {
					continue // a replay of an older minute
				}
				if ok, err := bl.Stage(p); err != nil {
					return 0, 0, err
				} else if ok {
					staged++
				}
			}
			bl.CommitStaged()
			tr.stop(id)
		}
		edges += bl.NumEdges()
		members += bl.Len()
	}
	tr.stop(root)
	b.layerSet("core.link_us_per_vp", 1e3*ms(tr.self("core.link"))/float64(staged), "us")
	b.layerSet("core.edges_per_vp", float64(edges)/float64(members), "count")
	return records, batchesN, nil
}

// probeIngestPaths feeds the sample to three scratch systems — over
// HTTP to a durable one, directly to a durable one, directly to an
// in-memory one — and derives the HTTP and journal costs.
func (b *bench) probeIngestPaths(uploads []*streamMinute, records, batchesN int) error {
	tr := b.tr
	dir := filepath.Join(b.work, "scratch")
	defer os.RemoveAll(dir)
	open := func(name string) (*server.System, error) {
		return server.OpenDurable(server.Config{AuthorityToken: token, Bank: b.bank},
			server.DurabilityConfig{WALPath: filepath.Join(dir, name, "ingest.wal"), SyncInterval: walSyncInterval})
	}
	viaHTTP, err := open("http")
	if err != nil {
		return err
	}
	defer viaHTTP.Abort()
	direct, err := open("direct")
	if err != nil {
		return err
	}
	defer direct.Abort()
	memory, err := server.NewSystem(server.Config{AuthorityToken: token, Bank: b.bank})
	if err != nil {
		return err
	}
	defer memory.Close()
	ep, err := serve(viaHTTP)
	if err != nil {
		return err
	}
	defer ep.stop()
	c := newConn(ep.base, "probe", nil)
	defer c.close()

	root := tr.start("probe.server.ingest", 0)
	for _, sm := range uploads {
		for _, sys := range []*server.System{direct, memory} {
			if err := sys.UploadTrustedVP(token, sm.trusted); err != nil {
				return err
			}
		}
		if err := c.uploadTrusted(sm.trusted); err != nil {
			return err
		}
		for _, body := range sm.bodies {
			id := tr.start("server.upload_http", root)
			if _, err := c.uploadBatch(body); err != nil {
				return err
			}
			tr.stop(id)
			id = tr.start("server.upload_durable", root)
			if _, err := direct.UploadVPBatch(body); err != nil {
				return err
			}
			tr.stop(id)
			id = tr.start("server.upload_memory", root)
			if _, err := memory.UploadVPBatch(body); err != nil {
				return err
			}
			tr.stop(id)
		}
	}
	tr.stop(root)
	httpT, durT, memT := tr.self("server.upload_http"), tr.self("server.upload_durable"), tr.self("server.upload_memory")
	b.layerSet("server.http_us_per_req", float64(httpT-durT)/float64(time.Microsecond)/float64(batchesN), "us")
	b.layerSet("server.journal_us_per_vp", float64(durT-memT)/float64(time.Microsecond)/float64(records), "us")
	return nil
}

// probeExtract times a fresh site's extraction (NewSiteView plus
// Refresh) and its cold TrustRank (VerifySiteFrom with no previous
// scores) over decoded minutes.
func (b *bench) probeExtract(minutes map[int64][]*vp.Profile, sites []geo.Rect) error {
	tr := b.tr
	root := tr.start("probe.core.extract", 0)
	var iters int
	for m, ps := range minutes {
		bl, err := builderOf(m, ps)
		if err != nil {
			return err
		}
		for _, site := range sites {
			id := tr.start("core.extract", root)
			vm, _, _, err := core.NewSiteView(bl, site, 0).Refresh()
			tr.stop(id)
			if err != nil {
				return err
			}
			id = tr.start("core.trustrank_cold", root)
			_, st, err := vm.VerifySiteFrom(vm.InSite(site), nil, core.TrustRankConfig{})
			tr.stop(id)
			if err != nil {
				return err
			}
			iters += st.Iterations
		}
	}
	tr.stop(root)
	b.layerSet("core.extract_ms", tr.perCall("core.extract"), "ms")
	b.layerSet("core.trustrank_cold_ms", tr.perCall("core.trustrank_cold"), "ms")
	if n := tr.count("core.trustrank_cold"); n > 0 {
		b.layerSet("core.trustrank_cold_iters", float64(iters)/float64(n), "count")
	}
	return nil
}

// builderOf links a decoded minute (trusted first) into a builder.
func builderOf(m int64, ps []*vp.Profile) (*core.IncrementalBuilder, error) {
	bl := core.NewIncrementalBuilder(core.IncrementalConfig{Minute: m, RequirePlausible: true})
	for _, p := range ps {
		if _, err := bl.Add(p); err != nil {
			return nil, err
		}
	}
	return bl, nil
}

// probePatch replays an incident's flood waves into a builder and
// times the site view's Refresh after each wave and the warm-started
// TrustRank that follows.
func (b *bench) probePatch(inc *incident) error {
	tr := b.tr
	bl, err := builderOf(inc.minute, decodeMinute(inc.md))
	if err != nil {
		return err
	}
	sv := core.NewSiteView(bl, inc.site, 0)
	vm, _, _, err := sv.Refresh()
	if err != nil {
		return err
	}
	v, _, err := vm.VerifySiteFrom(vm.InSite(inc.site), nil, core.TrustRankConfig{})
	if err != nil {
		return err
	}
	root := tr.start("probe.core.patch", 0)
	var iters int
	for _, wave := range inc.waves {
		recs, err := vp.SplitBatch(wave, 1<<16)
		if err != nil {
			return err
		}
		for _, p := range decodeAll(recs) {
			if _, err := bl.Add(p); err != nil {
				return err
			}
		}
		id := tr.start("core.patch", root)
		vm, _, _, err = sv.Refresh()
		tr.stop(id)
		if err != nil {
			return err
		}
		id = tr.start("core.trustrank_warm", root)
		var st core.VerifyStats
		v, st, err = vm.VerifySiteFrom(vm.InSite(inc.site), v.Scores, core.TrustRankConfig{})
		tr.stop(id)
		if err != nil {
			return err
		}
		iters += st.Iterations
	}
	tr.stop(root)
	b.layerSet("core.patch_ms", tr.perCall("core.patch"), "ms")
	b.layerSet("core.trustrank_warm_ms", tr.perCall("core.trustrank_warm"), "ms")
	if len(inc.waves) > 0 {
		b.layerSet("core.trustrank_warm_iters", float64(iters)/float64(len(inc.waves)), "count")
	}
	return nil
}

// probeReload times Store.SiteViewmap on evicted minutes (a segment
// reload) and again on the then-resident minute for a second fresh
// site; the difference is the reload.
func (b *bench) probeReload(n *node, cold []int64, sites []geo.Rect) error {
	if len(cold) == 0 || len(sites) < 2 {
		return nil
	}
	tr := b.tr
	root := tr.start("probe.server.reload", 0)
	for i, m := range cold {
		id := tr.start("server.siteviewmap_evicted", root)
		_, _, _, err := n.sys.Store().SiteViewmap(nudge(sites[0], 1<<18-1-2*i), m)
		tr.stop(id)
		if err != nil {
			return err
		}
		id = tr.start("server.siteviewmap_resident", root)
		_, _, _, err = n.sys.Store().SiteViewmap(nudge(sites[1], 1<<18-2-2*i), m)
		tr.stop(id)
		if err != nil {
			return err
		}
	}
	tr.stop(root)
	b.layerSet("server.reload_ms", tr.perCall("server.siteviewmap_evicted")-tr.perCall("server.siteviewmap_resident"), "ms")
	return nil
}

// probeEvidence works one incident's owners on a scratch in-memory
// system through the evidence service's public calls, timing the
// cascade check, blind signing and redaction, and the owner's client
// side of the payout (blinding, unblinding, Cash.Verify).
func (b *bench) probeEvidence(inc *incident) error {
	tr := b.tr
	sys, err := server.NewSystem(server.Config{AuthorityToken: token, Bank: b.bank})
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := sys.UploadTrustedVP(token, inc.md.trusted); err != nil {
		return err
	}
	for _, body := range batches(inc.md.records) {
		if _, err := sys.UploadVPBatch(body); err != nil {
			return err
		}
	}
	if _, err := sys.OpenSolicitation(token, inc.site, inc.minute, offerUnits); err != nil {
		return err
	}
	pub := b.bank.PublicKey()
	root := tr.start("probe.evidence", 0)
	session := 0
	next := func() string { session++; return fmt.Sprintf("probe-%d", session) }
	for _, o := range inc.owners {
		id := tr.start("evidence.deliver", root)
		_, err := sys.Evidence().Deliver(next(), o.id, o.q, o.chunks)
		tr.stop(id)
		if err != nil {
			continue // not on this incident's legitimate list
		}
		id = tr.start("reward.client", root)
		notes := make([]*reward.Note, offerUnits)
		blinded := make([]*big.Int, offerUnits)
		for i := range notes {
			if notes[i], err = reward.NewNote(pub, crand.Reader); err != nil {
				return err
			}
			blinded[i] = notes[i].Blind(pub)
		}
		tr.stop(id)
		id = tr.start("evidence.payout", root)
		sigs, err := sys.Evidence().Payout(next(), o.id, o.q, blinded)
		tr.stop(id)
		if err != nil {
			return err
		}
		id = tr.start("reward.client", root)
		for i, sig := range sigs {
			c, err := notes[i].Unblind(pub, sig)
			if err != nil || !c.Verify(pub) {
				return fmt.Errorf("probe payout does not verify: %v", err)
			}
		}
		tr.stop(id)
		id = tr.start("evidence.release", root)
		_, _, _, err = sys.ReleaseEvidence(token, o.id)
		tr.stop(id)
		if err != nil {
			return err
		}
	}
	tr.stop(root)
	rounds := float64(tr.count("evidence.payout"))
	if rounds == 0 {
		return nil
	}
	b.layerSet("evidence.deliver_ms", ms(tr.self("evidence.deliver"))/float64(tr.count("evidence.deliver")), "ms")
	b.layerSet("evidence.payout_ms", ms(tr.self("evidence.payout"))/rounds, "ms")
	b.layerSet("evidence.release_ms", ms(tr.self("evidence.release"))/rounds, "ms")
	b.layerSet("reward.client_ms", ms(tr.self("reward.client"))/rounds, "ms")
	return nil
}

// accounted sets trace.accounted_ratio: the layer self times the
// probes measured, scaled by the work a timed window did, over the
// window's summed request latency.
func (b *bench) accounted(e2e time.Duration, vps, uploads, hot, cold int64) {
	if e2e <= 0 {
		return
	}
	l := func(name string) float64 { return median(b.samples[name]) }
	perVP := (l("vp.decode_us_per_vp") + l("core.link_us_per_vp") + l("server.journal_us_per_vp")) / 1e3
	perReq := l("server.http_us_per_req") / 1e3
	fresh := l("core.extract_ms") + l("core.trustrank_cold_ms")
	covered := float64(vps)*perVP + float64(uploads+hot+cold)*perReq +
		float64(hot)*fresh + float64(cold)*(fresh+l("server.reload_ms"))
	b.layerSet("trace.accounted_ratio", covered/ms(e2e), "ratio")
}
