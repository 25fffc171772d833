// Command perfbench is the repository's Read Until benchmark. It runs one
// closed-loop workload through the public squigglefilter API, checks the
// verdicts, and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload virus-30k --seed 1 --seconds 55 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs untraced for half the time and traced for the other
// half, replaying the traced run's reads through the layers' public
// functions (normalize, squiggle decimation, sdtw coarse and exact kernels)
// one timed call at a time; it fails if the replay does not reproduce the
// engine's work, and prints the per-layer metrics. The spans go to --out.
// BENCHMARK.json names the workloads and metrics and says why each workload
// exists.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"squigglefilter"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	out      string // directory for the span file; "" writes none
	scale    scale
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostRecord describes the machine a result was measured on.
type hostRecord struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go_version"`
	AVX2       bool   `json:"avx2"`
	AVX512BW   bool   `json:"avx512bw"`
	Kernel     string `json:"kernel"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "virus-30k or cascade-1k")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same genomes and reads")
	seconds := fs.Int("seconds", 55, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run and layer replay, printing per-layer metrics")
	out := fs.String("out", "", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *out,
		scale:    fullScale,
	}
	res, host, err := run(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	h, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", h)
	r, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", r)
	return 0
}

// run sets the workload up, verifies and warms it, and measures it. Progress
// and failures are logged to log.
func run(cfg config, log io.Writer) (result, hostRecord, error) {
	w, pool, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return result{}, hostRecord{}, err
	}
	defer w.close()
	setup, buildMB, err := measureSetup(w, cfg.scale.builds, cfg.scale.setupTime)
	if err != nil {
		return result{}, hostRecord{}, err
	}
	d := &client{w: w, pool: pool}
	for i := 0; i < checked && i < len(pool); i++ {
		d.refs = append(d.refs, w.reference(pool[i].samples))
	}
	// Warm the session pools and coarse helpers with one read.
	if _, err := d.serve(0, nil); err != nil {
		return result{}, hostRecord{}, err
	}
	// The peak while serving, from a heap returned to the kernel.
	if err := resetPeakRSS(); err != nil {
		return result{}, hostRecord{}, err
	}
	host := readHost(w.kernel())

	if !cfg.trace {
		st, err := d.loop(cfg.dur, nil, nil)
		if err != nil {
			return result{}, host, err
		}
		servingMB, err := peakRSSMB()
		if err != nil {
			return result{}, host, err
		}
		logFailures(log, st.outcomes)
		if len(st.outcomes) < 100 {
			fmt.Fprintf(log, "only %d decisions: decision_ms_p90 has fewer than 10 beyond it\n", len(st.outcomes))
		}
		res := result{Attempted: len(st.outcomes), Failed: st.failed()}
		res.Correct = res.Failed == 0
		res.Metrics = endToEnd(&st, setup, max(buildMB, servingMB))
		return res, host, nil
	}

	// The traced run: half the time untraced, for the run-wide figures the
	// trace would disturb, then half the time traced, with each read
	// replayed through the layers as soon as the engine has decided it, so
	// that the engine's CPU time and the layers' busy time are measured
	// close together.
	untraced, err := d.loop(cfg.dur/2, nil, nil)
	if err != nil {
		return result{}, host, err
	}
	tr := newTracer()
	rp, err := w.newReplayer(tr)
	if err != nil {
		return result{}, host, err
	}
	var layers layerTotals
	diverged, maxDev := 0, 0.0
	traced, err := d.loop(cfg.dur/2, tr, func(o *outcome) {
		if o.failed() {
			return
		}
		r, busy := rp.replay(o.read, pool[o.read].samples)
		if why := divergence(o, &r); why != "" {
			diverged++
			fmt.Fprintf(log, "replay of read %d diverges: %s\n", o.read, why)
		}
		layers.add(o, &r, busy)
		maxDev = max(maxDev, math.Abs(float64(r.coarseCells-o.coarseCells))/max(1, float64(o.coarseCells)))
	})
	if err != nil {
		return result{}, host, err
	}
	fmt.Fprintf(log, "replayed %d reads, %d diverged; largest coarse-cell deviation %.2g\n", layers.reads, diverged, maxDev)
	logFailures(log, untraced.outcomes)
	logFailures(log, traced.outcomes)
	res := result{
		Attempted: len(untraced.outcomes) + len(traced.outcomes),
		Failed:    untraced.failed() + traced.failed(),
	}
	res.Correct = res.Failed == 0 && diverged == 0 && layers.reads > 0
	res.Metrics = perLayer(&untraced, &traced, &layers, tr.selfTime())
	if cfg.out != "" {
		h, _ := json.Marshal(host)
		header := fmt.Sprintf("workload=%s seed=%d host=%s", cfg.workload, cfg.seed, h)
		if err := tr.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".csv"), header); err != nil {
			return result{}, host, err
		}
	}
	return res, host, nil
}

// measureSetup builds the workload's program at least builds times and for
// at least minTime, each build after a collection with the read pool
// already in memory. It returns the median build time and the median of
// the builds' peak RSS: with the serving peak, the peak a process that
// builds once and then serves would reach. The last build stays in place.
func measureSetup(w workload, builds int, minTime time.Duration) (time.Duration, float64, error) {
	var times []time.Duration
	var peaks []float64
	for begin := time.Now(); len(times) < builds || time.Since(begin) < minTime; {
		w.close()
		if err := resetPeakRSS(); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := w.build(); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(start))
		peak, err := peakRSSMB()
		if err != nil {
			return 0, 0, err
		}
		peaks = append(peaks, peak)
	}
	slices.Sort(peaks)
	return quantile(times, 0.5), peaks[len(peaks)/2], nil
}

// resetPeakRSS collects garbage, returns freed memory to the kernel and
// restarts the kernel's peak RSS count (VmHWM), so that the next reading
// covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

func logFailures(log io.Writer, outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if o.failed() {
			fmt.Fprintf(log, "read %d failed: err=%v undecided=%v mismatch=%v\n", o.read, o.err, o.undecided, o.mismatch)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a Read Until user sees from an untraced
// run. Latencies and accuracy count the reads that were decided.
//
// On a host whose cores are shared with other tenants, a co-tenant on the
// same physical core can slow the DP kernels up to 2x for seconds at a
// time, so per-read times fall into a fast and a slow mode. The mean
// latency follows the share of contended reads smoothly, where the median
// jumps between the modes as that share crosses one half; the 90th
// percentile stays in the slow mode while more than a tenth of the run is
// contended.
func endToEnd(st *loopStats, setup time.Duration, memMB float64) map[string]metric {
	var lat []time.Duration
	var latSum time.Duration
	var pos, tp, neg, tn int
	for i := range st.outcomes {
		o := &st.outcomes[i]
		if o.err != nil || o.undecided {
			continue
		}
		lat = append(lat, o.latency)
		latSum += o.latency
		if o.source >= 0 {
			pos++
			if o.attributed {
				tp++
			}
		} else {
			neg++
			if !o.positive {
				tn++
			}
		}
	}
	n := float64(len(lat))
	wall, cpu := st.totals()
	return map[string]metric{
		"reads_per_s":      {ratio(n, wall.Seconds()), "1/s"},
		"decision_ms_mean": {ratio(ms(latSum), n), "ms"},
		"decision_ms_p90":  {ms(quantile(lat, 0.9)), "ms"},
		"cpu_ms_per_read":  {ratio(ms(cpu), n), "ms"},
		"tpr":              {ratio(float64(tp), float64(pos)), "frac"},
		"tnr":              {ratio(float64(tn), float64(neg)), "frac"},
		"setup_s":          {setup.Seconds(), "s"},
		"mem_mb":           {memMB, "MB"},
	}
}

// layerTotals sums the engine's counters, and the replay's cells and busy
// time, over the replayed reads.
type layerTotals struct {
	reads                               int
	survivors                           int
	exactCells, coarseCells             int64 // engine
	replayExactCells, replayCoarseCells int64
	coarsePruned, coarseScorings        int64
	busy                                time.Duration
}

func (t *layerTotals) add(o *outcome, r *replayed, busy time.Duration) {
	t.reads++
	t.survivors += len(o.survivors)
	t.exactCells += o.exactCells
	t.coarseCells += o.coarseCells
	t.coarsePruned += o.coarsePruned
	t.coarseScorings += o.coarseScorings
	t.replayExactCells += r.exactCells
	t.replayCoarseCells += r.coarseCells
	t.busy += busy
}

// perLayer computes the per-layer metrics: layer busy times from the
// replay's span self times, counts from the engine's accessors, engine
// overhead as the traced reads' CPU time less the layers' busy time
// replaying them, and CPU use, allocation and tracing overhead from the
// untraced and traced runs.
func perLayer(untraced, traced *loopStats, t *layerTotals, self map[string]time.Duration) map[string]metric {
	reads := float64(t.reads)
	perRead := func(d time.Duration) float64 { return ratio(ms(d), reads) }
	mcellsPerS := func(cells int64, d time.Duration) float64 { return ratio(float64(cells)/1e6, d.Seconds()) }
	un, tn := float64(len(untraced.outcomes)), float64(len(traced.outcomes))
	uWall, uCPU := untraced.totals()
	tWall, tCPU := traced.totals()
	return map[string]metric{
		"sdtw.exact.cpu_ms_per_read":        {perRead(self[spanExact]), "ms"},
		"sdtw.exact.mcells_per_s":           {mcellsPerS(t.replayExactCells, self[spanExact]), "Mcells/s"},
		"sdtw.exact.mcells_per_read":        {ratio(float64(t.exactCells)/1e6, reads), "Mcells"},
		"sdtw.coarse.cpu_ms_per_read":       {perRead(self[spanCoarse]), "ms"},
		"sdtw.coarse.mcells_per_s":          {mcellsPerS(t.replayCoarseCells, self[spanCoarse]), "Mcells/s"},
		"sdtw.coarse.mcells_per_read":       {ratio(float64(t.coarseCells)/1e6, reads), "Mcells"},
		"sdtw.coarse.pruned_frac":           {ratio(float64(t.coarsePruned), float64(t.coarseScorings)), "frac"},
		"squiggle.decimate.cpu_ms_per_read": {perRead(self[spanDecimate]), "ms"},
		"normalize.cpu_ms_per_read":         {perRead(self[spanNormalize]), "ms"},
		"engine.overhead_cpu_ms_per_read":   {ratio(ms(tCPU-t.busy), tn), "ms"},
		"engine.survivors_per_read":         {ratio(float64(t.survivors), reads), "count"},
		"engine.cpu_util":                   {ratio(uCPU.Seconds(), uWall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac"},
		"alloc.mb_per_read":                 {ratio(float64(untraced.allocBytes)/(1<<20), un), "MB"},
		"alloc.objects_per_read":            {ratio(float64(untraced.allocObjects), un), "count"},
		"trace.overhead_frac":               {1 - ratio(tn/tWall.Seconds(), un/uWall.Seconds()), "frac"},
	}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func readHost(k squigglefilter.Kernel) hostRecord {
	h := hostRecord{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     k.String(),
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return h
	}
	for _, line := range strings.Split(string(b), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if h.CPU == "unknown" {
				h.CPU = strings.TrimSpace(val)
			}
		case "flags":
			flags := strings.Fields(val)
			h.AVX2 = slices.Contains(flags, "avx2")
			h.AVX512BW = slices.Contains(flags, "avx512bw")
		}
	}
	return h
}
