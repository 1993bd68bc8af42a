package main

import (
	"sync"

	"viewmap/internal/vp"
)

// keptProfiles collects the decoded profiles of the kept minutes.
func keptProfiles(parts ...[]*streamMinute) map[int64][]*vp.Profile {
	out := map[int64][]*vp.Profile{}
	for _, p := range parts {
		for _, sm := range p {
			if sm.profiles != nil {
				out[sm.minute] = sm.profiles
			}
		}
	}
	return out
}

// genIncidents generates an incident at each of minutes, on two
// workers.
func (b *bench) genIncidents(minutes []int64) ([]*incident, error) {
	sc := b.sc
	count := len(minutes)
	out := make([]*incident, count)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count; i += len(errs) {
				inc, err := genIncident(b.seed, minutes[i], sc.fleetPerMinute, areaFor(sc.fleetPerMinute), sc.owners, sc.waves, sc.fakes)
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = inc
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// minutesFrom returns the minutes first, first+1, ..., first+count-1.
func minutesFrom(first int64, count int) []int64 {
	out := make([]int64, count)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}

// incidentsAt runs incidents one after another at fresh minutes: the
// clock moves to each incident's minute, its population is uploaded
// (untimed), and the authority works the round.
func (b *bench) incidentsAt(n *node, ep *endpoint, incs []*incident) error {
	quiesce()
	c := newConn(ep.base, "authority", b.tr)
	defer c.close()
	st := &roundStats{}
	for _, inc := range incs {
		sm := &streamMinute{minute: inc.minute, trusted: inc.md.trusted}
		for _, body := range batches(inc.md.records) {
			sm.bodies = append(sm.bodies, body)
		}
		for _, body := range sm.bodies {
			sm.recs = append(sm.recs, recordsIn(body))
			sm.dups = append(sm.dups, 0)
		}
		u := newUploader(n, []*streamMinute{sm})
		if err := u.closed([]*conn{c}); err != nil {
			return err
		}
		b.foldUpload(u.st)
		b.round(c, inc, st)
	}
	b.reportRounds(st)
	return nil
}

// recordsIn reads the record count of a batch body.
func recordsIn(body []byte) int {
	return int(uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3]))
}
