package main

import (
	crand "crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/vp"
)

// Building blocks the workloads compose: prepared history,
// set-up, the investigation mix and the incident round.

// goldenState is a workload's prepared history under construction:
// minutes are ingested in order with the workload's background cycle
// at every minute, and close leaves the directory as a crash would —
// snapshot, segments and a WAL tail.
type goldenState struct {
	n   *node
	dir string
}

func (b *bench) openGolden(pol policy, minute int64) (*goldenState, error) {
	dir := filepath.Join(b.work, "golden")
	n, err := openNode(dir, pol, b.bank, minute)
	if err != nil {
		return nil, err
	}
	return &goldenState{n: n, dir: dir}, nil
}

func (g *goldenState) ingest(minutes []*streamMinute) error {
	n := g.n
	for _, sm := range minutes {
		if err := n.tick(sm.minute); err != nil {
			return err
		}
		if err := n.settle(); err != nil {
			return err
		}
		if err := n.sys.UploadTrustedVP(token, sm.trusted); err != nil {
			return fmt.Errorf("history minute %d: %w", sm.minute, err)
		}
		for i, body := range sm.bodies {
			res, err := n.sys.UploadVPBatch(body)
			if err != nil || res.Stored != sm.recs[i]-sm.dups[i] {
				return fmt.Errorf("history minute %d batch %d: %+v %v", sm.minute, i, res, err)
			}
		}
	}
	return nil
}

func (g *goldenState) close() (string, error) {
	err := g.n.settle()
	g.n.sys.Abort()
	return g.dir, err
}

// prepare builds the prepared state from one slice of history.
func (b *bench) prepare(pol policy, history []*streamMinute) (string, error) {
	g, err := b.openGolden(pol, history[0].minute)
	if err != nil {
		return "", err
	}
	if err := g.ingest(history); err != nil {
		g.close()
		return "", err
	}
	return g.close()
}

// setup opens a fresh copy of the prepared state and warms it up; the
// system stays open for the repetition's measured phases. Each call
// adds one sample of setup_s (OpenDurable through the end of warm-up)
// and of its recovery part, server.recover_s.
func (b *bench) setup(golden string, pol policy, minute int64, rep int, warm func(*node, *endpoint) error) (*node, *endpoint, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("sut-%d", rep))
	if err := copyState(golden, dir); err != nil {
		return nil, nil, err
	}
	quiesce()
	t0 := time.Now()
	n, err := openNode(dir, pol, b.bank, minute)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	ep, err := serve(n.sys)
	if err != nil {
		n.sys.Abort()
		return nil, nil, err
	}
	if err := warm(n, ep); err != nil {
		ep.stop()
		n.sys.Abort()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	t2 := time.Now()
	b.set("setup_s", t2.Sub(t0).Seconds(), "s")
	b.layerSet("server.recover_s", t1.Sub(t0).Seconds(), "s")
	quiesce()
	return n, ep, nil
}

// discard stops a repetition's system and removes its state (a
// directory left behind goes with the run's work directory).
func discard(n *node, ep *endpoint) {
	ep.stop()
	_ = n.settle()
	n.sys.Abort()
	_ = os.RemoveAll(n.dir)
}

// part returns the i-th of k near-equal consecutive slices of xs.
func part[T any](xs []T, i, k int) []T {
	return xs[i*len(xs)/k : (i+1)*len(xs)/k]
}

// quiesce starts a measured phase with no earlier garbage left to
// collect and no dirty pages left for the kernel to write back under
// it.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// conns opens k clients against ep, traced on traced runs.
func (b *bench) conns(ep *endpoint, k int, name string) []*conn {
	cs := make([]*conn, k)
	for i := range cs {
		cs[i] = newConn(ep.base, fmt.Sprintf("%s%d", name, i), b.tr)
	}
	return cs
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// upload runs a closed-loop upload phase and folds its outcome into
// the run's counts. It returns the phase statistics.
func (b *bench) upload(n *node, ep *endpoint, minutes []*streamMinute, clients int) (*uploadStats, error) {
	cs := b.conns(ep, clients, "uploader")
	defer closeAll(cs)
	u := newUploader(n, minutes)
	err := u.closed(cs)
	b.foldUpload(u.st)
	return u.st, err
}

// foldUpload adds an upload phase's operations and failures to the
// run's counts.
func (b *bench) foldUpload(st *uploadStats) {
	for _, e := range st.errs {
		b.note("upload: %s", e)
	}
	b.count(st.attempts, st.failures)
}

// note records a failure message without counting it again.
func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.wrong) < 10 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

// Investigation requests.

type invKind int

const (
	hotReq invKind = iota
	coldReq
	periodReq
)

// invReq is one investigation request with its expected answer.
type invReq struct {
	kind   invKind
	site   geo.Rect
	minute int64 // first minute for a period
	last   int64
	refs   []string // reference legitimate set per minute
}

// unusable marks a reference whose site has a sample too close to a
// border for nudged copies to be certain of the same answer.
const unusable = "!"

// refTable holds reference verdicts: refs[minute][site index].
type refTable struct {
	sites []geo.Rect
	refs  map[int64][]string
}

// newRefTable draws k reference sites on a ring at 30% of the area's
// side around its centre, where each minute's police car starts: every
// incident lies as far from its nearest trusted VP, so viewmap sizes,
// and with them request costs, vary little from seed to seed.
func newRefTable(seed int64, area geo.Rect, k int) *refTable {
	rng := rand.New(rand.NewSource(mix(seed, 7)))
	t := &refTable{refs: map[int64][]string{}}
	c, r := area.Center(), 0.3*area.Width()
	for i := 0; i < k; i++ {
		th := 2 * math.Pi * (float64(i) + rng.Float64()) / float64(k)
		t.sites = append(t.sites, geo.RectAround(geo.Pt(c.X+r*math.Cos(th), c.Y+r*math.Sin(th)), 150))
	}
	return t
}

// add computes the reference verdict of every site over every minute
// in profiles, on two workers.
func (t *refTable) add(profiles map[int64][]*vp.Profile) error {
	k := len(t.sites)
	var minutes []int64
	for m := range profiles {
		minutes = append(minutes, m)
		t.refs[m] = make([]string, k)
	}
	sort.Slice(minutes, func(i, j int) bool { return minutes[i] < minutes[j] })
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(minutes)*k; j += len(errs) {
				m, s := minutes[j/k], j%k
				ref, vm, err := reference(profiles[m], t.sites[s], m)
				if err != nil {
					errs[w] = fmt.Errorf("reference for minute %d site %d: %w", m, s, err)
					return
				}
				if borderMargin(profiles[m], t.sites[s], vm.Coverage) < minMargin {
					ref = unusable
				}
				t.refs[m][s] = ref
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// plan draws count requests: hot ones on resident minutes, cold ones
// cycling through evicted minutes in a seeded order (so every cold
// request reloads its segment), and periods over [periodFirst,
// periodFirst+4], in the given fractions (tenths). Every request names
// a never-asked site.
func (t *refTable) plan(seed, salt int64, count int, hot, cold []int64, periodFirst int64, fracCold, fracPeriod float64, nudgeBase int) []invReq {
	rng := rand.New(rand.NewSource(mix(seed, 8, salt)))
	order := append([]int64(nil), cold...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// Kinds come in blocks of ten, shuffled within the block, so every
	// run of a given length asks the same mix.
	block := make([]invKind, 10)
	for i := range block {
		switch {
		case float64(i) < 10*fracPeriod:
			block[i] = periodReq
		case float64(i) < 10*(fracPeriod+fracCold):
			block[i] = coldReq
		default:
			block[i] = hotReq
		}
	}
	var reqs []invReq
	ci := 0
	for i := 0; i < count; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		s0 := rng.Intn(len(t.sites))
		kind, minutes := block[i%len(block)], []int64{hot[rng.Intn(len(hot))]}
		switch kind {
		case periodReq:
			minutes = []int64{periodFirst, periodFirst + 1, periodFirst + 2, periodFirst + 3, periodFirst + 4}
		case coldReq:
			minutes = []int64{order[ci%len(order)]}
			ci++
		}
		// The first site whose references are all usable.
		for j := 0; j < len(t.sites); j++ {
			s := (s0 + j) % len(t.sites)
			var refs []string
			for _, m := range minutes {
				if r := t.refs[m]; r != nil && r[s] != unusable {
					refs = append(refs, r[s])
				}
			}
			if len(refs) == len(minutes) {
				reqs = append(reqs, invReq{kind: kind, site: nudge(t.sites[s], nudgeBase+i), minute: minutes[0],
					last: minutes[len(minutes)-1], refs: refs})
				break
			}
		}
	}
	return reqs
}

// invStats holds per-kind latencies of an investigation phase.
type invStats struct {
	mu   sync.Mutex
	lat  [3][]time.Duration
	ends []time.Time // completion times, in order
}

// investigate runs reqs closed loop over clients and checks every
// answer against its reference. It returns the phase's start.
func (b *bench) investigate(ep *endpoint, reqs []invReq, clients int) (*invStats, time.Time) {
	cs := b.conns(ep, clients, "authority")
	defer closeAll(cs)
	st := &invStats{}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				b.invOne(c, &reqs[i], st)
			}
		}(c)
	}
	wg.Wait()
	return st, t0
}

func (b *bench) invOne(c *conn, r *invReq, st *invStats) {
	b.count(1, 0)
	var got []*report
	t0 := time.Now()
	var err error
	if r.kind == periodReq {
		got, err = c.period(r.site, r.minute, r.last)
	} else {
		var rep *report
		rep, err = c.investigate(r.site, r.minute)
		got = []*report{rep}
	}
	d := time.Since(t0)
	if err != nil {
		b.wrongf("investigate minute %d: %v", r.minute, err)
		return
	}
	if len(got) != len(r.refs) {
		b.wrongf("investigate minute %d: %d reports, want %d", r.minute, len(got), len(r.refs))
		return
	}
	for i, rep := range got {
		if rep == nil || hexSetKey(rep.Legitimate) != r.refs[i] {
			b.wrongf("investigate minute %d: legitimate set differs from the core.Build reference", r.minute+int64(i))
			return
		}
		b.verified(r.minute+int64(i), r.refs[i])
	}
	st.mu.Lock()
	st.lat[r.kind] = append(st.lat[r.kind], d)
	st.ends = append(st.ends, time.Now())
	st.mu.Unlock()
}

// rate is completions per second, robust like p50ms: completions are
// cut into up to eight consecutive groups of at least eight, each
// group's rate runs from the previous group's last completion (or
// start) to its own last, and the result is the median group rate.
func rate(start time.Time, ends []time.Time) float64 {
	if len(ends) == 0 {
		return 0
	}
	k := max(1, min(8, len(ends)/8))
	rates := make([]float64, k)
	prev := start
	for g := range rates {
		lo, hi := g*len(ends)/k, (g+1)*len(ends)/k
		rates[g] = float64(hi-lo) / ends[hi-1].Sub(prev).Seconds()
		prev = ends[hi-1]
	}
	return median(rates)
}

// reportInvestigate sets the investigation metrics of a phase.
func (b *bench) reportInvestigate(st *invStats, start time.Time) {
	b.set("investigate_per_s", rate(start, st.ends), "1/s")
	b.set("investigate_p50_ms", p50ms(st.lat[hotReq]), "ms")
	b.layerSet("investigate_p99_ms", quantileMS(st.lat[hotReq], 0.99), "ms")
	b.set("cold_investigate_p50_ms", p50ms(st.lat[coldReq]), "ms")
	b.layerSet("cold_investigate_p99_ms", quantileMS(st.lat[coldReq], 0.99), "ms")
	b.set("period_p50_ms", p50ms(st.lat[periodReq]), "ms")
}

// Incident rounds.

// roundStats holds latencies of incident rounds.
type roundStats struct {
	reverify, evidence []time.Duration
}

const offerUnits = 2

// round works one incident: investigate the site, re-investigate after
// every flood wave, open the evidence solicitation, and have every
// legitimate owner deliver, withdraw and redeem. Every answer is
// checked against the incident's references.
func (b *bench) round(c *conn, inc *incident, st *roundStats) {
	m := inc.minute
	check := func(what string, rep *report, err error, w int) bool {
		b.count(1, 0)
		if err != nil {
			b.wrongf("incident %d %s: %v", m, what, err)
			return false
		}
		if hexSetKey(rep.Legitimate) != inc.refs[w] {
			b.wrongf("incident %d %s: verdict after %d waves differs from the cold reference", m, what, w)
			return false
		}
		b.verified(m, inc.refs[w])
		return true
	}
	rep, err := c.investigate(inc.site, m)
	if !check("investigate", rep, err, 0) {
		return
	}
	for w, wave := range inc.waves {
		b.count(1, 0)
		res, err := c.uploadBatch(wave)
		if err != nil || res.Stored != b.sc.fakes {
			b.wrongf("incident %d wave %d: %+v %v", m, w, res, err)
			return
		}
		t0 := time.Now()
		rep, err := c.investigate(inc.site, m)
		d := time.Since(t0)
		if !check("re-investigate", rep, err, w+1) {
			return
		}
		st.reverify = append(st.reverify, d)
	}
	b.count(1, 0)
	listed, err := c.solicit(inc.site, m, offerUnits)
	if err != nil || listed != inc.listed {
		b.wrongf("incident %d solicitation listed %d, want %d (%v)", m, listed, inc.listed, err)
		return
	}
	legit := map[string]bool{}
	for _, h := range splitKey(inc.refs[len(inc.refs)-1]) {
		legit[h] = true
	}
	pub := b.bank.PublicKey()
	for _, o := range inc.owners {
		if !legit[fmt.Sprintf("%x", o.id[:])] {
			continue
		}
		b.count(1, 0)
		t0 := time.Now()
		cash, err := b.evidenceRound(c, o, pub)
		d := time.Since(t0)
		if err != nil {
			b.wrongf("incident %d owner %x: %v", m, o.id[:4], err)
			continue
		}
		// A second spend of the same unit must bounce.
		b.count(1, 0)
		if err := c.redeem(cash.M, cash.Sig); err == nil {
			b.wrongf("incident %d owner %x: double spend accepted", m, o.id[:4])
			continue
		}
		b.count(1, 0)
		chunks, frames, err := c.release(o.id)
		if err != nil || chunks != len(o.chunks) || frames != len(o.chunks) {
			b.wrongf("incident %d owner %x: release gave %d chunks, %d frames, want %d (%v)", m, o.id[:4], chunks, frames, len(o.chunks), err)
			continue
		}
		st.evidence = append(st.evidence, d)
	}
}

// evidenceRound is one owner's deliver, withdraw and redeem; it
// returns the redeemed unit for the double-spend probe.
func (b *bench) evidenceRound(c *conn, o owner, pub *rsa.PublicKey) (*reward.Cash, error) {
	units, err := c.deliver(o.id, o.q, o.chunks)
	if err != nil {
		return nil, fmt.Errorf("deliver: %w", err)
	}
	if units != offerUnits {
		return nil, fmt.Errorf("delivery entitles %d units, want %d", units, offerUnits)
	}
	notes := make([]*reward.Note, units)
	blinded := make([]*big.Int, units)
	for i := range notes {
		if notes[i], err = reward.NewNote(pub, crand.Reader); err != nil {
			return nil, err
		}
		blinded[i] = notes[i].Blind(pub)
	}
	sigs, err := c.payout(o.id, o.q, blinded)
	if err != nil {
		return nil, fmt.Errorf("payout: %w", err)
	}
	if len(sigs) != units {
		return nil, fmt.Errorf("payout returned %d signatures, want %d", len(sigs), units)
	}
	var cash *reward.Cash
	for i, sig := range sigs {
		ch, err := notes[i].Unblind(pub, sig)
		if err != nil {
			return nil, fmt.Errorf("unblinding: %w", err)
		}
		if !ch.Verify(pub) {
			return nil, errors.New("payout does not verify against the bank key")
		}
		cash = ch
	}
	if err := c.redeem(cash.M, cash.Sig); err != nil {
		return nil, fmt.Errorf("redeem: %w", err)
	}
	return cash, nil
}

// reportRounds sets the incident metrics of a phase.
func (b *bench) reportRounds(st *roundStats) {
	b.set("reverify_p50_ms", p50ms(st.reverify), "ms")
	b.set("evidence_p50_ms", p50ms(st.evidence), "ms")
}
