package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// streamMinute is one minute of pre-marshalled upload traffic.
type streamMinute struct {
	minute  int64
	trusted []byte
	bodies  [][]byte
	// dups[i] is the number of replayed (already stored) records in
	// bodies[i]; recs[i] its record count.
	dups, recs []int
	// ids are the minute's new identifiers, trusted first.
	ids []vd.VPID
	// profiles is kept for sampled minutes only (see minuteData).
	profiles []*vp.Profile
}

// wireBytes is the number of wire bytes in the minute's bodies.
func (s *streamMinute) wireBytes() int64 {
	var n int64
	for _, b := range s.bodies {
		n += int64(len(b))
	}
	return n
}

// streamSpec describes a generated stream of minutes.
type streamSpec struct {
	first, count int64
	perMinute    int
	area         geo.Rect
	// replayEvery inserts one replayed record after every replayEvery
	// new records (zero: no replays), drawn from minutes [m-lag+1,
	// m-2]: old enough to be acknowledged, young enough to pass the
	// admission window, and reaching into evicted minutes whenever the
	// window is wider than the retention horizon.
	replayEvery, lag int
	// keep reports whether a minute's decoded profiles are kept.
	keep func(m int64) bool
}

// genStream generates the minutes of spec. recent carries replay
// candidates (a few records per minute) across calls.
func genStream(seed int64, spec streamSpec, recent map[int64][][]byte) ([]*streamMinute, error) {
	mds, err := genMinutes(seed, spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mix(seed, 6, spec.first)))
	out := make([]*streamMinute, 0, spec.count)
	for k, md := range mds {
		m := spec.first + int64(k)
		sm := &streamMinute{minute: m, trusted: md.trusted, profiles: md.profiles}
		sm.ids = md.ids
		var recs [][]byte
		var dup int
		flush := func() {
			sm.bodies = append(sm.bodies, vp.MarshalRawBatch(recs))
			sm.recs = append(sm.recs, len(recs))
			sm.dups = append(sm.dups, dup)
			recs, dup = nil, 0
		}
		for i, r := range md.records {
			recs = append(recs, r)
			if spec.replayEvery > 0 && (i+1)%spec.replayEvery == 0 {
				src := m - 2 - int64(rng.Intn(spec.lag-2))
				if pool := recent[src]; len(pool) > 0 {
					recs = append(recs, pool[rng.Intn(len(pool))])
					dup++
				}
			}
			if len(recs) >= batchSize {
				flush()
			}
		}
		if len(recs) > 0 {
			flush()
		}
		recent[m] = md.records[:min(8, len(md.records))]
		delete(recent, m-int64(spec.lag))
		out = append(out, sm)
	}
	return out, nil
}

// genMinutes generates the minutes of spec on two workers: each
// minute is a pure function of (seed, minute).
func genMinutes(seed int64, spec streamSpec) ([]*minuteData, error) {
	mds := make([]*minuteData, spec.count)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(mds); k += len(errs) {
				m := spec.first + int64(k)
				md, _, err := genMinute(seed, m, spec.perMinute, spec.area, nil, spec.keep != nil && spec.keep(m))
				if err != nil {
					errs[w] = err
					return
				}
				mds[k] = md
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mds, nil
}

// uploadStats accumulates one upload phase.
type uploadStats struct {
	mu       sync.Mutex
	lat      []time.Duration
	records  int64
	bytes    int64
	failures int64
	attempts int64
	errs     []string
	// acks holds every acknowledged batch: its minute, record count,
	// send and ack times.
	acks []ack
}

type ack struct {
	minute    int64
	records   int
	sent, got time.Time
}

// segments returns the whole segments of `minutes` consecutive
// minutes (aligned to multiples of it, so each segment holds the same
// background cycles), keyed by segment number: the records
// acknowledged in each and the time from its first send to its last
// ack. Partial segments at either end are left out unless there is no
// whole one.
func (u *uploadStats) segments(minutes int64) map[int64]segment {
	type seg struct {
		records     int
		first, last time.Time
		minutes     map[int64]bool
	}
	segs := map[int64]*seg{}
	for _, a := range u.acks {
		k := a.minute / minutes
		s := segs[k]
		if s == nil {
			s = &seg{first: a.sent, last: a.got, minutes: map[int64]bool{}}
			segs[k] = s
		}
		s.records += a.records
		s.minutes[a.minute] = true
		if a.sent.Before(s.first) {
			s.first = a.sent
		}
		if a.got.After(s.last) {
			s.last = a.got
		}
	}
	whole, all := map[int64]segment{}, map[int64]segment{}
	for k, s := range segs {
		all[k] = segment{records: s.records, dur: s.last.Sub(s.first)}
		if int64(len(s.minutes)) == minutes {
			whole[k] = all[k]
		}
	}
	if len(whole) == 0 {
		return all
	}
	return whole
}

// segment is one segment of an upload phase.
type segment struct {
	records int
	dur     time.Duration
}

func (u *uploadStats) fail(format string, args ...any) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.failures++
	if len(u.errs) < 5 {
		u.errs = append(u.errs, fmt.Sprintf(format, args...))
	}
}

// uploader feeds a stream to the server in order, closed loop, with
// any number of clients.
type uploader struct {
	n       *node
	minutes []*streamMinute
	st      *uploadStats

	mu     sync.Mutex
	moved  *sync.Cond // on mu: a batch was answered
	mi, bi int        // next minute and body
	// inflight counts the batches sent and not yet answered, by minute.
	inflight map[int64]int
}

func newUploader(n *node, minutes []*streamMinute) *uploader {
	u := &uploader{n: n, minutes: minutes, st: &uploadStats{}, inflight: map[int64]int{}}
	u.moved = sync.NewCond(&u.mu)
	return u
}

// behind reports whether a batch of a minute before m-1 is in flight.
// The clock may not reach m then: the batch's replays of its oldest
// admissible minute would turn stale under it.
func (u *uploader) behind(m int64) bool {
	for k := range u.inflight {
		if k < m-1 {
			return true
		}
	}
	return false
}

// next hands out the next body. The caller that opens a minute
// advances the simulated clock, uploads the minute's trusted VP before
// any of its batches leaves, and then queues the minute's background
// cycle, which runs beside the uploads.
func (u *uploader) next(c *conn) (sm *streamMinute, bi int, ok bool, err error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for {
		if u.mi >= len(u.minutes) {
			return nil, 0, false, nil
		}
		sm = u.minutes[u.mi]
		if u.bi > 0 || !u.behind(sm.minute) {
			break
		}
		u.moved.Wait()
	}
	if u.bi == 0 {
		if err := u.n.err(); err != nil {
			return nil, 0, false, err
		}
		u.n.clock.minute.Store(sm.minute)
		if err := c.uploadTrusted(sm.trusted); err != nil {
			return nil, 0, false, fmt.Errorf("trusted upload for minute %d: %w", sm.minute, err)
		}
		u.n.cycle(sm.minute)
	}
	bi = u.bi
	u.bi++
	if u.bi == len(sm.bodies) {
		u.mi, u.bi = u.mi+1, 0
	}
	u.inflight[sm.minute]++
	return sm, bi, true, nil
}

// answered marks one batch of minute m as answered.
func (u *uploader) answered(m int64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.inflight[m]--; u.inflight[m] == 0 {
		delete(u.inflight, m)
	}
	u.moved.Broadcast()
}

// send uploads one body and checks the server's accounting of it.
func (u *uploader) send(c *conn, sm *streamMinute, bi int) {
	t0 := time.Now()
	rep, err := c.uploadBatch(sm.bodies[bi])
	t1 := time.Now()
	u.answered(sm.minute)
	st := u.st
	st.mu.Lock()
	st.attempts++
	st.mu.Unlock()
	if err != nil {
		st.fail("minute %d batch %d: %v", sm.minute, bi, err)
		return
	}
	want := batchReply{Stored: sm.recs[bi] - sm.dups[bi], Duplicates: sm.dups[bi]}
	if rep != want {
		st.fail("minute %d batch %d: server counted %+v, want %+v", sm.minute, bi, rep, want)
	}
	st.mu.Lock()
	st.lat = append(st.lat, t1.Sub(t0))
	st.acks = append(st.acks, ack{minute: sm.minute, records: sm.recs[bi], sent: t0, got: t1})
	st.records += int64(sm.recs[bi])
	st.bytes += int64(len(sm.bodies[bi]))
	st.mu.Unlock()
}

// closed runs the stream to its end with one goroutine per client,
// then waits for the queued background cycles.
func (u *uploader) closed(clients []*conn) error {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for {
				sm, bi, ok, err := u.next(c)
				if err != nil || !ok {
					errs[i] = err
					return
				}
				u.send(c, sm, bi)
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(append(errs, u.n.settle())...)
}
