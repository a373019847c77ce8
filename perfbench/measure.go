package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// host is the provenance block recorded with every result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostInfo(workers int) host {
	return host{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: workers,
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks. xs is sorted in place; +Inf
// entries (failed ops) sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// loopResult is what a closed loop measured.
type loopResult struct {
	Ops, Failed int
	// Samples are the latency samples in ms; a failed op contributes +Inf,
	// so it misses every latency limit.
	Samples []float64
	Wall    time.Duration
	CPU     time.Duration
	// Windows are the phase's consecutive stretches of WindowOps ops each;
	// a partial last stretch is left out.
	WindowOps int
	Windows   []window
}

// window is the wall and CPU time of WindowOps consecutive ops.
type window struct{ Wall, CPU time.Duration }

// throughput is the median over windows of ops ÷ wall time, or the whole
// phase's rate when it held no complete window. The host's speed drifts
// by 10–25 % over stretches of seconds; a median over windows keeps a
// slow stretch shorter than half the run out of the figure, where the
// whole phase's mean takes it in.
func (lr loopResult) throughput() float64 {
	if len(lr.Windows) == 0 {
		return float64(lr.Ops) / lr.Wall.Seconds()
	}
	rates := make([]float64, len(lr.Windows))
	for i, w := range lr.Windows {
		rates[i] = float64(lr.WindowOps) / w.Wall.Seconds()
	}
	return median(rates)
}

// cpuPerOp is the median over windows of process CPU time ÷ ops, in ms,
// or the whole phase's figure when it held no complete window.
func (lr loopResult) cpuPerOp() float64 {
	if len(lr.Windows) == 0 {
		return ms(lr.CPU) / float64(lr.Ops)
	}
	per := make([]float64, len(lr.Windows))
	for i, w := range lr.Windows {
		per[i] = ms(w.CPU) / float64(lr.WindowOps)
	}
	return median(per)
}

// opFunc runs op i and returns its latency samples in ms (usually one:
// the op's wall time) and whether it failed.
type opFunc func(i int) (samples []float64, failed bool)

// closedLoop runs op on one caller, each op issued only after the previous
// one returned, until d has elapsed. The op that straddles the deadline
// completes and counts. Every windowOps consecutive ops close a window;
// workloads choose windowOps so that every window does the same work.
func closedLoop(d time.Duration, windowOps int, op opFunc) loopResult {
	res := loopResult{WindowOps: windowOps}
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	wStart, wCPU := start, cpu0
	for i := 0; time.Now().Before(deadline); i++ {
		s, failed := op(i)
		res.Ops++
		if failed {
			res.Failed++
		}
		res.Samples = append(res.Samples, s...)
		if res.Ops%windowOps == 0 {
			now, cpu := time.Now(), cpuTime()
			res.Windows = append(res.Windows, window{now.Sub(wStart), cpu - wCPU})
			wStart, wCPU = now, cpu
		}
	}
	res.Wall = time.Since(start)
	res.CPU = cpuTime() - cpu0
	return res
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd turns a measured loop into the end-to-end metrics shared by
// every workload (setup_s, map_mean and recall_mean are added by the
// caller).
func endToEnd(lr loopResult, tail float64) map[string]metric {
	return map[string]metric{
		"throughput_ops_s": {lr.throughput(), "1/s"},
		"latency_p50_ms":   {median(lr.Samples), "ms"},
		"latency_tail_ms":  {percentile(append([]float64(nil), lr.Samples...), tail), "ms"},
		"cpu_ms_per_op":    {lr.cpuPerOp(), "ms"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
}

// setupReps is how many times set-up runs in a run; setup_s is the median.
const setupReps = 3

// timeSetup runs setup setupReps times and returns the last rep's state
// and the median set-up time in seconds. Every rep does the same
// deterministic work; the median keeps a slow first rep (cold page faults,
// heap growth) out of the figure. discard, when set, releases each earlier
// rep's state outside the timed region.
func timeSetup[S any](setup func() (S, error), discard func(S)) (S, float64, error) {
	var (
		state S
		secs  []float64
	)
	for r := 0; r < setupReps; r++ {
		if r > 0 && discard != nil {
			discard(state)
		}
		runtime.GC()
		start := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		state = s
	}
	return state, median(secs), nil
}
