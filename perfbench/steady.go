package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// endToEnd names the end-to-end metrics; the steadiness report flags
// any of them whose runs spread by more than a tenth.
var endToEnd = []string{
	"setup_s", "upload_vps_per_s", "upload_p50_ms",
	"investigate_per_s", "investigate_p50_ms",
	"cold_investigate_p50_ms", "period_p50_ms",
	"reverify_p50_ms", "evidence_p50_ms", "heap_live_mb",
	"write_bytes_per_vp_byte", "disk_bytes_per_vp_byte",
}

// steadiness runs the workload runs times in child processes, seeds
// seed..seed+runs-1, and prints the machine and each metric's median,
// quartiles, minimum, maximum and spread (interquartile range over
// median).
func steadiness(workload string, seed int64, seconds, trace, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println(machine())
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < runs; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		sum, err := lastSummary(out)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !sum.Correct {
			return fmt.Errorf("run %d (seed %d) was not correct: %d of %d operations failed", i, seed+int64(i), sum.Failed, sum.Attempted)
		}
		for k, m := range sum.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	e2e := map[string]bool{}
	for _, k := range endToEnd {
		e2e[k] = true
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, k := range names {
		v := values[k]
		q1, med, q3 := quartiles(v)
		lo, hi := minMax(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag := ""
		if e2e[k] && spread > 0.1 {
			flag = "  > 0.1"
		}
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s%s\n", k, med, q1, q3, lo, hi, spread, units[k], flag)
	}
	return nil
}

// lastSummary parses the JSON summary on the last line of out.
func lastSummary(out []byte) (*summary, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var s summary
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return nil, fmt.Errorf("no summary line: %w", err)
	}
	return &s, nil
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func minMax(v []float64) (float64, float64) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// machine describes where the runs happened.
func machine() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fs := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(".", &st); err == nil {
		fs = fsName(int64(st.Type))
	}
	return fmt.Sprintf("machine: GOMAXPROCS=%d nproc=%d cpu=%q go=%s fs=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), model, runtime.Version(), fs)
}

// fsName names the common filesystem magic numbers.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
