// Command perfbench is the repository's end-to-end benchmark. It
// drives a durable server.System over loopback HTTP through one of
// two workloads, checks every answer against offline references,
// and prints each metric with its unit, the last line being a JSON
// summary:
//
//	perfbench --workload fleet-ingest --seed 1 --seconds 10 --trace 0
//
// Inputs are a pure function of --seed and are generated before any
// timing. A run sets up a fresh copy of the workload's prepared state
// several times and measures a share of the timed work on each; every
// metric is the median over those repetitions. Background work
// (checkpoints, retention sweeps, the admission clock) is driven off
// the simulated clock, so a seed always does the same work.
//
// --trace 1 runs the workload with spans recorded around every call
// into a layer and prints the per-layer metrics instead. --steady N
// runs the workload N times (seeds seed..seed+N-1) in child processes
// and prints each metric's spread.
//
// All state lives under .bench_build/ of the working directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"viewmap/internal/reward"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload run.
type bench struct {
	workload string
	seed     int64
	seconds  int
	sc       scale
	work     string
	bank     *reward.Bank
	tr       *tracer // nil on untraced runs
	start    time.Time
	// recordBytes is the wire size of one VP record.
	recordBytes int64

	mu sync.Mutex
	// Every metric is measured once per repetition (scale.reps) and
	// reported as the median.
	samples   map[string][]float64
	units     map[string]string
	layers    map[string]bool // names of per-layer metrics
	metrics   map[string]metric
	layer     map[string]metric // per-layer metrics (traced runs)
	attempted int64
	failed    int64
	wrong     []string
	// verdicts logs every verified answer as "minute:legitimate set",
	// for the determinism test.
	verdicts []string
	// Every repetition uploads the same stream, so its checkpoint-
	// aligned segments are the same: each segment's records, and its
	// duration in each repetition.
	segRecords map[int64]int
	segDurs    map[int64][]time.Duration
}

// set records one repetition's value of an end-to-end metric.
func (b *bench) set(name string, v float64, unit string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.samples[name] = append(b.samples[name], v)
	b.units[name] = unit
}

// reduce sets each metric to the median of its repetitions. Upload
// throughput is the stream's records over the sum of each segment's
// median duration: the segments of a stream differ by the background
// work they hold, so a median over all of them would sit between
// those modes, while a segment's median over repetitions does not.
func (b *bench) reduce() {
	if len(b.segDurs) > 0 {
		var records int
		var dur time.Duration
		for k, ds := range b.segDurs {
			records += b.segRecords[k]
			dur += medianDur(ds)
		}
		b.set("upload_vps_per_s", float64(records)/dur.Seconds(), "1/s")
	}
	for name, vs := range b.samples {
		m := metric{Value: median(vs), Unit: b.units[name]}
		if b.layers[name] {
			b.layer[name] = m
		} else {
			b.metrics[name] = m
		}
	}
}

// phase logs the time since the run started to standard error.
func (b *bench) phase(name string) {
	fmt.Fprintf(os.Stderr, "perfbench: %-28s %6.2fs\n", name, time.Since(b.start).Seconds())
}

// layerSet records one repetition's value of a per-layer metric.
func (b *bench) layerSet(name string, v float64, unit string) {
	b.mu.Lock()
	b.layers[name] = true
	b.mu.Unlock()
	b.set(name, v, unit)
}

// verified logs a verified answer.
func (b *bench) verified(minute int64, key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.verdicts = append(b.verdicts, fmt.Sprintf("%d:%s", minute, key))
}

// count adds attempted and failed operations.
func (b *bench) count(attempted, failed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += attempted
	b.failed += failed
}

// wrongf records a wrong answer: one failed operation, and the run is
// not correct.
func (b *bench) wrongf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.wrong) < 10 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*bench) error{
	"fleet-ingest":         fleetIngest,
	"incident-investigate": incidentInvestigate,
}

func main() {
	workload := flag.String("workload", "", "fleet-ingest or incident-investigate")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 8, "nominal length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times and report each metric's spread")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (fleet-ingest, incident-investigate), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*workload, *seed, *seconds, *trace, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	sum, err := execute(*workload, run, scales["full"], *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(sum.Metrics))
	for k := range sum.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, sum.Metrics[k].Value, sum.Metrics[k].Unit)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and returns its summary.
func execute(name string, run func(*bench) error, sc scale, seed int64, seconds int, traced bool) (*summary, error) {
	b, err := runBench(name, run, sc, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	for _, w := range b.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", w)
	}
	metrics := b.metrics
	if traced {
		metrics = b.layer
	}
	for _, name := range endToEnd {
		if _, ok := b.metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return &summary{
		Correct:   b.failed == 0 && len(b.wrong) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

// runBench runs one workload in a private work directory under
// .bench_build and returns the finished run.
func runBench(name string, run func(*bench) error, sc scale, seed int64, seconds int, traced bool) (*bench, error) {
	root, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, "work-")
	if err != nil {
		return nil, err
	}
	// The filesystem may discard freed blocks at journal commit: flush
	// what earlier runs freed before this one starts, and what this
	// one frees before it exits, so no run pays for another's.
	syscall.Sync()
	defer syscall.Sync()
	defer os.RemoveAll(work)
	b := &bench{
		workload: name, seed: seed, start: time.Now(), seconds: seconds, sc: sc, work: work,
		samples: map[string][]float64{}, units: map[string]string{}, layers: map[string]bool{},
		segRecords: map[int64]int{}, segDurs: map[int64][]time.Duration{},
		metrics: map[string]metric{}, layer: map[string]metric{},
	}
	if b.bank, err = reward.NewBank(sc.bankBits); err != nil {
		return nil, err
	}
	if traced {
		b.tr = newTracer()
	}
	if err := run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		if err := b.tr.finish(b, filepath.Join(root, fmt.Sprintf("trace-%s-%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	b.reduce()
	// A layer the workload did not reach reads zero.
	for _, m := range layerMetrics {
		if _, ok := b.layer[m.name]; !ok {
			b.layer[m.name] = metric{Value: 0, Unit: m.unit}
		}
	}
	if b.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return b, nil
}

// heapLiveMB forces a collection and returns the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// p50ms is a run's median latency in ms, robust to a passing burst
// of contention from outside the benchmark: samples (in completion
// order) are cut into up to eight consecutive groups of at least
// eight, and the result is the median of the group medians.
func p50ms(ds []time.Duration) float64 {
	k := min(8, len(ds)/8)
	if k < 3 {
		return quantileMS(ds, 0.5)
	}
	meds := make([]float64, k)
	for g := range meds {
		meds[g] = quantileMS(ds[g*len(ds)/k:(g+1)*len(ds)/k], 0.5)
	}
	return median(meds)
}

// quantileMS returns the nearest-rank q-quantile of ds in ms.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := max(0, min(len(s)-1, int(math.Ceil(q*float64(len(s))))-1))
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}
