package main

// scale sizes a run's inputs. "full" is the benchmark; "tiny" keeps
// the same structure at a size the package tests can afford.
type scale struct {
	bankBits int
	// reps is how many times a run sets up a fresh copy of the
	// prepared state and measures a share of the timed work on it;
	// every metric is the median over the repetitions, so a burst of
	// outside contention spoils at most a minority of them.
	reps int

	// fleet-ingest: VPs per minute, minutes of prepared history,
	// warm-up minutes, and the nominal ack rate (VPs/s) that sizes the
	// timed stream to --seconds.
	fleetPerMinute, fleetHistory, fleetWarm int
	fleetRate                               float64

	// incident-investigate: VPs per minute, prepared minutes, resident
	// horizon, reference sites, warm-up requests, and the nominal
	// request rate that sizes the timed request list.
	invPerMinute, invHistory, invRetention, invSites, invWarm int
	invRate                                                   float64

	// Incidents: evidence owners per incident, flood waves and fakes
	// per wave.
	owners, waves, fakes int

	// Probe phase, run after the timed window so every workload
	// reports every end-to-end metric: investigation requests,
	// incidents, and closed-loop upload minutes.
	probeRequests, probeIncidents, probeUploadMinutes int
}

// probeSites is the number of reference sites of a probe phase.
const probeSites = 24

var scales = map[string]scale{
	"full": {
		bankBits: 2048, reps: 5,
		fleetPerMinute: 200, fleetHistory: 40, fleetWarm: 24, fleetRate: 22000,
		invPerMinute: 1000, invHistory: 60, invRetention: 10, invSites: 10, invWarm: 40, invRate: 60,
		owners: 5, waves: 10, fakes: 40,
		probeRequests: 800, probeIncidents: 20, probeUploadMinutes: 480,
	},
	"tiny": {
		bankBits: 1024, reps: 2,
		fleetPerMinute: 40, fleetHistory: 12, fleetWarm: 3, fleetRate: 400,
		invPerMinute: 60, invHistory: 16, invRetention: 4, invSites: 3, invWarm: 4, invRate: 20,
		owners: 2, waves: 2, fakes: 10,
		probeRequests: 12, probeIncidents: 2, probeUploadMinutes: 4,
	},
}
