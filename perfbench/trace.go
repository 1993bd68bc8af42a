package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"viewmap/internal/server"
)

// layerMetrics is the per-layer catalogue a traced run reports, in
// order; a layer a workload does not exercise reads zero.
var layerMetrics = []struct{ name, unit string }{
	// Tail latencies too unsteady from run to run to gate on (see
	// CHANGES.md); the traced run reports them.
	{"upload_p99_ms", "ms"},
	{"investigate_p99_ms", "ms"},
	{"cold_investigate_p99_ms", "ms"},
	{"vp.decode_us_per_vp", "us"},
	{"vp.allocs_per_vp", "count"},
	{"core.link_us_per_vp", "us"},
	{"core.edges_per_vp", "count"},
	{"core.extract_ms", "ms"},
	{"core.patch_ms", "ms"},
	{"core.trustrank_cold_ms", "ms"},
	{"core.trustrank_cold_iters", "count"},
	{"core.trustrank_warm_ms", "ms"},
	{"core.trustrank_warm_iters", "count"},
	{"server.http_us_per_req", "us"},
	{"server.journal_us_per_vp", "us"},
	{"server.fsyncs", "count"},
	{"server.vps_per_fsync", "count"},
	{"server.fsync_ms_total", "ms"},
	{"server.stage.decode_us_per_vp", "us"},
	{"server.stage.ring_wait_us_per_vp", "us"},
	{"server.stage.link_us_per_vp", "us"},
	{"server.stage.commit_us_per_vp", "us"},
	{"server.stage.wal_append_us_per_vp", "us"},
	{"server.stage.fsync_us_per_vp", "us"},
	{"server.checkpoints", "count"},
	{"server.checkpoint_ms", "ms"},
	{"server.checkpoint_mb", "MB"},
	{"server.checkpoint_stall_ms", "ms"},
	{"server.evictions", "count"},
	{"server.evict_ms", "ms"},
	{"server.reloads", "count"},
	{"server.reload_ms", "ms"},
	{"server.recover_s", "s"},
	{"server.verdict_hit_ratio", "ratio"},
	{"server.shed_ratio", "ratio"},
	{"server.duplicate_ratio", "ratio"},
	{"server.stale_ratio", "ratio"},
	{"evidence.deliver_ms", "ms"},
	{"evidence.payout_ms", "ms"},
	{"evidence.release_ms", "ms"},
	{"reward.client_ms", "ms"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.accounted_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// span is one timed call: name, start and end (ns since the tracer
// started) and the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each client's HTTP
// requests alternate between recorded and unrecorded, so inside a
// timed window the cost of recording shows as the latency gap between
// the two.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// window marks a timed window: its requests are counted per path.
	window bool
	reqs   map[string]*reqAcc
}

// reqAcc accumulates one path's request latencies in timed windows.
type reqAcc struct {
	traced, plain time.Duration
	nt, np        int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), reqs: map[string]*reqAcc{}} }

// start opens a span; a nil tracer records nothing.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// stop closes span id.
func (t *tracer) stop(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// beginRequest opens the span of an HTTP request whose per-client
// sequence number seq is even; odd ones go unrecorded.
func (t *tracer) beginRequest(path string, seq int64) (int, bool) {
	if t == nil || seq%2 != 0 {
		return 0, false
	}
	return t.start("http "+path, 0), true
}

// endRequest closes a request span and, in a timed window, counts the
// request's latency as recorded or not.
func (t *tracer) endRequest(id int, path string, sampled bool, d time.Duration) {
	if t == nil {
		return
	}
	t.stop(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.window {
		return
	}
	a := t.reqs[path]
	if a == nil {
		a = &reqAcc{}
		t.reqs[path] = a
	}
	if sampled {
		a.traced += d
		a.nt++
	} else {
		a.plain += d
		a.np++
	}
}

func (t *tracer) setWindow(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.window = on
	t.mu.Unlock()
}

// self returns the summed self time of every span named name: its
// duration minus the union of its children's intervals.
func (t *tracer) self(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var total int64
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], end), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		total += s.End - s.Start - covered
	}
	return time.Duration(total)
}

// count returns the number of closed spans named name.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			n++
		}
	}
	return n
}

// perCall is the mean self time of name in ms, or zero.
func (t *tracer) perCall(name string) float64 {
	if n := t.count(name); n > 0 {
		return ms(t.self(name)) / float64(n)
	}
	return 0
}

// finish writes the spans to path and reports the recording overhead
// from the timed windows' alternating requests.
func (t *tracer) finish(b *bench, path string) error {
	t.mu.Lock()
	var busiest *reqAcc
	for _, a := range t.reqs {
		if busiest == nil || a.nt+a.np > busiest.nt+busiest.np {
			busiest = a
		}
	}
	spans := t.spans
	t.mu.Unlock()
	if busiest != nil && busiest.nt > 0 && busiest.np > 0 {
		b.layerSet("trace.overhead_ratio",
			(float64(busiest.traced)/float64(busiest.nt))/(float64(busiest.plain)/float64(busiest.np)), "ratio")
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// windowStats brackets a timed window with the server's and the
// runtime's counters.
type windowStats struct {
	dur      server.DurabilityStats
	pipe     server.PipelineStats
	ingest   server.IngestStats
	overload server.OverloadStats
	verifies uint64
	gcPause  time.Duration
	gcCPU    float64
	allCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readWindow(n *node) windowStats {
	w := windowStats{
		dur:      n.sys.DurabilityStatsSnapshot(),
		pipe:     n.sys.PipelineStatsSnapshot(),
		ingest:   n.sys.Store().IngestStatsSnapshot(),
		overload: n.sys.OverloadStatsSnapshot(),
	}
	for _, s := range n.sys.TrustRankStats() {
		w.verifies += s.Verifications
	}
	metrics.Read(runtimeSamples)
	w.gcCPU = runtimeSamples[0].Value.Float64()
	w.allCPU = runtimeSamples[1].Value.Float64()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	w.gcPause = time.Duration(mst.PauseTotalNs)
	return w
}

// openWindow starts a timed window: request accounting on, counters
// read.
func (b *bench) openWindow(n *node) windowStats {
	w := readWindow(n)
	b.tr.setWindow(true)
	return w
}

// closeWindow ends a timed window and reports its counters.
func (b *bench) closeWindow(n *node, a windowStats, records, requests int64) {
	b.tr.setWindow(false)
	b.window(a, readWindow(n), records, requests)
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// window reports the per-layer counters of a timed window that
// acknowledged records VPs and served requests investigations (one
// per investigated minute).
func (b *bench) window(a, z windowStats, records, requests int64) {
	b.layerSet("runtime.gc_pause_ms_total", ms(z.gcPause-a.gcPause), "ms")
	if cpu := z.allCPU - a.allCPU; cpu > 0 {
		b.layerSet("runtime.gc_cpu_fraction", (z.gcCPU-a.gcCPU)/cpu, "ratio")
	}
	if requests > 0 {
		hit := 1 - float64(z.verifies-a.verifies)/float64(requests)
		b.layerSet("server.verdict_hit_ratio", max(hit, 0), "ratio")
	}
	shed := (z.overload.Ingest.Shed + z.overload.Investigate.Shed + z.overload.Evidence.Shed) -
		(a.overload.Ingest.Shed + a.overload.Investigate.Shed + a.overload.Evidence.Shed)
	admitted := (z.overload.Ingest.Admitted + z.overload.Investigate.Admitted + z.overload.Evidence.Admitted) -
		(a.overload.Ingest.Admitted + a.overload.Investigate.Admitted + a.overload.Evidence.Admitted)
	if shed+admitted > 0 {
		b.layerSet("server.shed_ratio", float64(shed)/float64(shed+admitted), "ratio")
	}
	if records == 0 {
		return
	}
	b.layerSet("server.duplicate_ratio", float64(z.ingest.Duplicates-a.ingest.Duplicates)/float64(records), "ratio")
	b.layerSet("server.stale_ratio", float64(z.ingest.Stale-a.ingest.Stale)/float64(records), "ratio")
	fsyncs := z.dur.Fsyncs - a.dur.Fsyncs
	b.layerSet("server.fsyncs", float64(fsyncs), "count")
	b.layerSet("server.fsync_ms_total", z.dur.FsyncTotalMS-a.dur.FsyncTotalMS, "ms")
	if fsyncs > 0 {
		b.layerSet("server.vps_per_fsync", float64(records)/float64(fsyncs), "count")
	}
	names := map[string]string{
		"decode": "decode", "ring_wait": "ring_wait", "link_stage": "link",
		"commit": "commit", "wal_append": "wal_append", "fsync": "fsync",
	}
	before := map[string]time.Duration{}
	for _, s := range a.pipe.Stages {
		before[s.Stage] = s.Total
	}
	for _, s := range z.pipe.Stages {
		if short, ok := names[s.Stage]; ok {
			us := float64(s.Total-before[s.Stage]) / float64(time.Microsecond) / float64(records)
			b.layerSet("server.stage."+short+"_us_per_vp", us, "us")
		}
	}
}
