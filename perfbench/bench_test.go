package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"viewmap/internal/reward"
	"viewmap/internal/vd"
)

// tiny runs a workload at the tiny scale in a temporary directory.
func tiny(t *testing.T, workload string, seed int64, traced bool) *bench {
	t.Helper()
	t.Chdir(t.TempDir())
	b, err := runBench(workload, workloads[workload], scales["tiny"], seed, 3, traced)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if b.failed != 0 || len(b.wrong) != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, b.failed, b.attempted, b.wrong)
	}
	return b
}

// names returns a metric map's keys, sorted.
func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// benchmarkFile reads the metric names BENCHMARK.json declares.
func benchmarkFile(t *testing.T) (e2e, layer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range f.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer
}

// TestSmoke runs every workload at the tiny scale, untraced and
// traced, and requires exactly the metrics BENCHMARK.json declares,
// every end-to-end one positive and finite.
func TestSmoke(t *testing.T) {
	e2e, layer := benchmarkFile(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			b := tiny(t, name, 3, false)
			if got := names(b.metrics); strings.Join(got, ",") != strings.Join(e2e, ",") {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, e2e)
			}
			for k, m := range b.metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", k, m.Value)
				}
			}
			b = tiny(t, name, 3, true)
			if got := names(b.layer); strings.Join(got, ",") != strings.Join(layer, ",") {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, layer)
			}
		})
	}
}

// TestCatchesWrongAnswers injects a wrong verdict and a dropped
// acknowledgement and requires both to count as failed operations.
func TestCatchesWrongAnswers(t *testing.T) {
	t.Chdir(t.TempDir())
	sc := scales["tiny"]
	b := &bench{sc: sc, seed: 5, work: t.TempDir(), metrics: map[string]metric{}, layer: map[string]metric{},
		samples: map[string][]float64{}, units: map[string]string{}, layers: map[string]bool{}}
	var err error
	if b.bank, err = reward.NewBank(sc.bankBits); err != nil {
		t.Fatal(err)
	}
	area := areaFor(sc.fleetPerMinute)
	minutes, err := genStream(b.seed, streamSpec{first: 0, count: 2, perMinute: sc.fleetPerMinute, area: area,
		lag: fleetPolicy.lag, keep: func(int64) bool { return true }}, map[int64][][]byte{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := openNode(filepath.Join(b.work, "sut"), fleetPolicy, b.bank, 0)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := serve(n.sys)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.stop()
	if _, err := b.upload(n, ep, minutes, 2); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("clean upload counted %d failures: %v", b.failed, b.wrong)
	}

	table := newRefTable(b.seed, area, 2)
	if err := table.add(keptProfiles(minutes)); err != nil {
		t.Fatal(err)
	}
	reqs := table.plan(b.seed, 1, 4, []int64{1}, []int64{0}, 0, 0, 0, 0)
	b.investigate(ep, reqs, 1)
	if b.failed != 0 {
		t.Fatalf("right verdicts counted %d failures: %v", b.failed, b.wrong)
	}
	wrong := reqs[0]
	wrong.refs = []string{wrong.refs[0] + ",00"} // one legitimate VP too many
	b.investigate(ep, []invReq{wrong}, 1)
	if b.failed != 1 {
		t.Fatalf("an injected wrong verdict counted %d failures, want 1", b.failed)
	}

	// A phase in which every answer is wrong still reports.
	allWrong := append([]invReq(nil), reqs...)
	for i := range allWrong {
		allWrong[i].refs = []string{allWrong[i].refs[0] + ",00"}
	}
	b.reportInvestigate(b.investigate(ep, allWrong, 2))
	if want := int64(1 + len(allWrong)); b.failed != want {
		t.Fatalf("a phase of wrong verdicts counted %d failures, want %d", b.failed, want)
	}
	b.reduce()
	if v := b.metrics["investigate_per_s"].Value; v != 0 {
		t.Fatalf("investigate_per_s = %v with no right answer, want 0", v)
	}
	failed := b.failed

	// A VP the server never stored, listed as acknowledged.
	acked := ackedIDs(minutes)
	acked[1] = append(acked[1], vd.VPID{0xde, 0xad})
	if err := b.checkDurable(n, acked, 0, nil); err != nil {
		t.Fatal(err)
	}
	if b.failed <= failed {
		t.Fatalf("a dropped acknowledgement was not caught: %d failures", b.failed)
	}
}

// TestDeterministicCounts runs each workload twice on one seed and
// requires identical structural counts and verdict sets: the
// simulated clock, not a wall-clock timer, drives every checkpoint,
// eviction and segment reload.
func TestDeterministicCounts(t *testing.T) {
	counts := []string{"core.edges_per_vp", "server.checkpoints", "server.evictions", "server.reloads"}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := tiny(t, name, 9, true), tiny(t, name, 9, true)
			for _, k := range counts {
				if a.layer[k].Value != b.layer[k].Value {
					t.Errorf("%s: %v then %v", k, a.layer[k].Value, b.layer[k].Value)
				}
			}
			sort.Strings(a.verdicts)
			sort.Strings(b.verdicts)
			if len(a.verdicts) == 0 || strings.Join(a.verdicts, ";") != strings.Join(b.verdicts, ";") {
				t.Errorf("verdict sets differ between runs (%d and %d verdicts)", len(a.verdicts), len(b.verdicts))
			}
		})
	}
}

// TestUploadThroughputPerSegment checks that upload throughput takes
// each segment's median duration over the repetitions, so one slow
// repetition of a segment does not count and the result does not
// depend on how the segments of a stream differ.
func TestUploadThroughputPerSegment(t *testing.T) {
	b := &bench{metrics: map[string]metric{}, layer: map[string]metric{},
		samples: map[string][]float64{}, units: map[string]string{}, layers: map[string]bool{},
		segRecords: map[int64]int{}, segDurs: map[int64][]time.Duration{}}
	t0 := time.Unix(0, 0)
	// Seconds each repetition spends on segments 0 and 1.
	for _, durs := range [][2]int{{1, 2}, {1, 9}, {5, 2}} {
		st := &uploadStats{}
		for m := int64(0); m < 2*checkpointEvery; m++ {
			k := m / checkpointEvery
			sent := t0.Add(time.Duration(10*k) * time.Second)
			st.acks = append(st.acks, ack{minute: m, records: 10,
				sent: sent, got: sent.Add(time.Duration(durs[k]) * time.Second)})
		}
		b.reportUpload(st, -1)
	}
	b.reduce()
	want := float64(2*checkpointEvery*10) / 3 // medians 1 s and 2 s
	if got := b.metrics["upload_vps_per_s"].Value; math.Abs(got-want) > 1e-9 {
		t.Fatalf("upload_vps_per_s = %v, want %v", got, want)
	}
}
