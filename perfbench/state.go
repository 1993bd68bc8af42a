package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewmap/internal/reward"
	"viewmap/internal/server"
)

// Durability settings every workload runs under. Background work is
// driven by the benchmark off the simulated clock, so no server timer
// may fire inside a run: the snapshotter is off and the retention
// sweep's period is far longer than any run.
const (
	// walSyncInterval is the WAL group-commit window: zero, the server
	// default, syncs as soon as a record is buffered.
	walSyncInterval   = 0
	retentionInterval = 24 * time.Hour
	// coldCap is the number of reloaded cold minutes kept resident.
	coldCap = 2
	// checkpointEvery is the checkpoint cadence in simulated minutes.
	checkpointEvery = 16
)

// policy is a workload's retention and admission settings.
type policy struct {
	retention int // resident minute horizon (RetentionMinutes)
	lag       int // upload admission window (MaxUploadLagMinutes)
}

// simClock is the admission clock: it reads the simulated minute the
// benchmark last advanced it to.
type simClock struct{ minute atomic.Int64 }

func (c *simClock) now() time.Time { return time.Unix(c.minute.Load()*60+30, 0) }

// node is one durable System under test, opened over a state
// directory, with the benchmark's background driver.
type node struct {
	sys   *server.System
	dir   string
	pol   policy
	clock *simClock

	bgWG   sync.WaitGroup
	bgMu   sync.Mutex
	bgLast chan struct{} // closed when the last queued cycle ends
	bgErr  error
	// Background cycle accounting (per driven call).
	checkpoints, evictions  int
	checkpointDur, evictDur []time.Duration
	checkpointBytes         []int64
	// ckptWindows bracket the checkpoints, for the stall metric.
	ckptWindows [][2]time.Time
}

func walPath(dir string) string { return filepath.Join(dir, "ingest.wal") }

// openNode recovers a System from dir (empty for a fresh one).
func openNode(dir string, pol policy, bank *reward.Bank, minute int64) (*node, error) {
	n := &node{dir: dir, pol: pol, clock: &simClock{}}
	n.clock.minute.Store(minute)
	sys, err := server.OpenDurable(server.Config{
		AuthorityToken:      token,
		Bank:                bank,
		Now:                 n.clock.now,
		MaxUploadLagMinutes: pol.lag,
	}, server.DurabilityConfig{
		WALPath:             walPath(dir),
		SyncInterval:        walSyncInterval,
		RetentionMinutes:    pol.retention,
		ResidentColdMinutes: coldCap,
		RetentionInterval:   retentionInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	n.sys = sys
	return n, nil
}

// tick advances the simulated clock to minute m and queues that
// minute's background cycle.
func (n *node) tick(m int64) error {
	if err := n.err(); err != nil {
		return err
	}
	n.clock.minute.Store(m)
	n.cycle(m)
	return nil
}

// cycle queues minute m's background cycle: one retention sweep, and a
// checkpoint every checkpointEvery minutes. Cycles run one at a time,
// in the order they were queued, beside whatever the caller does next;
// settle waits for them. Every run on a seed thus queues the same
// cycles at the same data points, and a sweep that starts late only
// evicts sooner what a later one would have.
func (n *node) cycle(m int64) {
	done := make(chan struct{})
	n.bgMu.Lock()
	prev := n.bgLast
	n.bgLast = done
	n.bgMu.Unlock()
	n.bgWG.Add(1)
	go func() {
		defer n.bgWG.Done()
		defer close(done)
		if prev != nil {
			<-prev
		}
		if n.err() != nil {
			return
		}
		t0 := time.Now()
		evicted, err := n.sys.Store().ApplyRetention()
		d := time.Since(t0)
		n.bgMu.Lock()
		n.evictions += evicted
		if evicted > 0 {
			n.evictDur = append(n.evictDur, d)
		}
		n.bgMu.Unlock()
		if err != nil {
			n.fail(fmt.Errorf("retention at minute %d: %w", m, err))
			return
		}
		if m%checkpointEvery == 0 {
			if err := n.checkpoint(); err != nil {
				n.fail(fmt.Errorf("checkpoint at minute %d: %w", m, err))
			}
		}
	}()
}

// checkpoint runs one driven Checkpoint and records its cost.
func (n *node) checkpoint() error {
	t0 := time.Now()
	err := n.sys.Checkpoint()
	t1 := time.Now()
	st, serr := os.Stat(walPath(n.dir) + ".snap")
	n.bgMu.Lock()
	defer n.bgMu.Unlock()
	n.checkpoints++
	n.checkpointDur = append(n.checkpointDur, t1.Sub(t0))
	n.ckptWindows = append(n.ckptWindows, [2]time.Time{t0, t1})
	if serr == nil {
		n.checkpointBytes = append(n.checkpointBytes, st.Size())
	}
	return err
}

func (n *node) fail(err error) {
	n.bgMu.Lock()
	if n.bgErr == nil {
		n.bgErr = err
	}
	n.bgMu.Unlock()
}

func (n *node) err() error {
	n.bgMu.Lock()
	defer n.bgMu.Unlock()
	return n.bgErr
}

// settle waits for every queued background cycle.
func (n *node) settle() error {
	n.bgWG.Wait()
	return n.err()
}

// copyState makes dst a fresh copy of the prepared state in src.
// Segment files are immutable once renamed into place (the server
// rewrites a segment through a new temp file), so they are hard
// linked; the WAL and the snapshot are copied.
func copyState(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case info.IsDir():
			return os.MkdirAll(target, 0o755)
		case strings.HasSuffix(path, ".seg"):
			return os.Link(path, target)
		default:
			return copyFile(path, target)
		}
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// writeBytes reads this process's storage write counter (bytes of
// page cache it dirtied), or -1 where the kernel does not expose it.
func writeBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}
