// Command gsacsbench is the G-SACS benchmark. It runs one named workload of
// the Sec 7.1 scenario and prints every metric by name and unit; the last
// line of its output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// With -trace 0 it starts a fresh gsacs-server child per run, drives it
// over loopback HTTP (an open-loop phase for latency, then a closed-loop
// phase for throughput and CPU) and reports the end-to-end metrics. With
// -trace 1 it replays the workload's request sequence in process, single
// threaded, timing calls into each layer, and reports per-layer metrics.
// Every answer is checked against an in-process engine over the same seeded
// scenario; a wrong answer, a policy leak or a drifting triple count makes
// the run fail.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash gsacsbench/run.sh --workload sec71_read --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	// metrics are the contract metrics: end-to-end for a timed run,
	// per-layer for a traced run.
	metrics []metric
	// extra are further figures printed by name but not in the JSON line.
	extra []metric
	// meta describes the run.
	meta [][2]string
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) addExtra(name string, v float64, unit string) {
	r.extra = append(r.extra, metric{name, v, unit})
}

func (r *result) addMeta(k string, v any) {
	r.meta = append(r.meta, [2]string{k, fmt.Sprint(v)})
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for the scenario and the request sequence")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	server := flag.String("server", "", "gsacs-server binary (timed runs)")
	work := flag.String("work", ".bench_build/work", "scratch directory for data directories and span files")
	flag.Parse()
	sp, ok := findSpec(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gsacsbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	d := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(ctx, sp, *seed, d, *work)
	} else {
		if *server == "" {
			fmt.Fprintln(os.Stderr, "gsacsbench: -server is required for a timed run")
			os.Exit(2)
		}
		res, err = timedRun(ctx, sp, *seed, d, *server, *work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsacsbench:", err)
		os.Exit(1)
	}
	res.addMeta("workload", sp.name)
	res.addMeta("seed", *seed)
	res.addMeta("nproc", runtime.NumCPU())
	res.addMeta("gomaxprocs", runtime.GOMAXPROCS(0))
	res.addMeta("go", runtime.Version())
	res.addMeta("fsync", "always")
	for _, m := range res.meta {
		fmt.Printf("meta %s %s\n", m[0], m[1])
	}
	metrics := map[string]map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("metric %s %s %s\n", m.name, formatValue(m.value), m.unit)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, m := range res.extra {
		fmt.Printf("report %s %s %s\n", m.name, formatValue(m.value), m.unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsacsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// setupRepeats is how many fresh servers a timed run starts; setup_s is
// their median.
const setupRepeats = 3

// rounds is how many open-loop plus closed-loop rounds a timed run makes.
const rounds = 4

// timedRun measures the end-to-end metrics against fresh server children.
func timedRun(ctx context.Context, sp spec, seed int64, d time.Duration, bin, work string) (*result, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	runDir, err := makeRunDir(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var setups []float64
	var c *child
	for i := 0; i < setupRepeats; i++ {
		dir := fmt.Sprintf("%s/server%d", runDir, i)
		ch, took, err := startChild(ctx, bin, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			ch.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		c = ch
	}
	defer c.stop()

	res := &result{}
	t := &tally{}
	before, err := c.storeTriples(ctx)
	if err != nil {
		return nil, err
	}
	lanes := newLanes(sp, seed, ref.book)
	if err := warmUp(ctx, c, ref, t, sp, lanes); err != nil {
		return nil, err
	}

	// Rounds of an open-loop phase then a closed-loop phase. p50 is the
	// fastest round's median: other tenants of a shared box only ever slow a
	// round, while a change to the server moves every round. Throughput and
	// CPU are totals over all closed-loop phases, since a short phase of
	// sec71_rw holds only a few view rebuilds.
	var (
		open            openResult
		closed          closedResult
		p50s, tps, cpus []float64
	)
	for i := 0; i < rounds; i++ {
		o := openLoop(ctx, c, ref, t, lanes, sp.openRPS, d/2/rounds)
		cl, err := closedLoop(ctx, c, ref, t, lanes, d/2/rounds)
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lat, _, _ := latencies(o.samples)
		p50s = append(p50s, quantile(lat, 0.50))
		tps = append(tps, float64(cl.correct)/cl.elapsed.Seconds())
		cpus = append(cpus, ms(cl.cpu)/float64(cl.sent))
		open.samples = append(open.samples, o.samples...)
		open.lateness = append(open.lateness, o.lateness...)
		open.sent += o.sent
		open.elapsed += o.elapsed
		closed.sent += cl.sent
		closed.correct += cl.correct
		closed.elapsed += cl.elapsed
		closed.cpu += cl.cpu
	}

	// Closing check: one more rename, then every site's name, a Hazmat and
	// a MainRep answer, and the triple count.
	send(ctx, c, ref, t, lanes[0].write())
	for _, k := range []kind{kindHazmat, kindView} {
		send(ctx, c, ref, t, request{kind: k, path: readPaths[k]})
	}
	status, body, err := c.get(ctx, readPaths[kindER])
	switch {
	case err != nil:
		t.note(fmt.Sprintf("name check: %v", err))
	case status != 200:
		t.note(fmt.Sprintf("name check: status %d", status))
	default:
		t.note(ref.checkNames(body))
	}
	after, err := c.storeTriples(ctx)
	if err != nil {
		return nil, err
	}
	if after != before {
		t.note(fmt.Sprintf("triple count drifted from %d to %d", before, after))
	}
	rss, err := c.peakRSSMB()
	if err != nil {
		return nil, err
	}

	all, reads, writes := latencies(open.samples)
	res.add("setup_s", median(setups), "s")
	res.add("p50_ms", slices.Min(p50s), "ms")
	res.add("throughput_rps", float64(closed.correct)/closed.elapsed.Seconds(), "1/s")
	res.add("cpu_ms_per_req", ms(closed.cpu)/float64(closed.sent), "ms")
	res.add("peak_rss_mb", rss, "MB")

	// The tail is printed, not a contract metric: between runs on a shared
	// 2-CPU box its spread exceeded the largest bound the contract allows.
	res.addExtra("p95_ms", quantile(all, 0.95), "ms")
	for _, c := range []struct {
		name string
		lat  []float64
	}{{"read", reads}, {"write", writes}} {
		if len(c.lat) == 0 {
			continue
		}
		res.addExtra(c.name+"_p50_ms", quantile(c.lat, 0.50), "ms")
		res.addExtra(c.name+"_p95_ms", quantile(c.lat, 0.95), "ms")
		// p99 is printed only with at least ten samples beyond it.
		if len(c.lat) >= 1000 {
			res.addExtra(c.name+"_p99_ms", quantile(c.lat, 0.99), "ms")
		}
	}
	res.addExtra("error_ratio", float64(t.failed)/float64(t.attempted), "ratio")
	late := durationsMs(open.lateness)
	sort.Float64s(late)
	res.addExtra("generator_late_p50_ms", quantile(late, 0.50), "ms")
	res.addExtra("generator_late_p99_ms", quantile(late, 0.99), "ms")
	res.addExtra("generator_late_max_ms", quantile(late, 1), "ms")
	res.addExtra("open_achieved_rps", float64(open.sent)/open.elapsed.Seconds(), "1/s")
	for i := range p50s {
		res.addExtra(fmt.Sprintf("round%d_p50_ms", i+1), p50s[i], "ms")
		res.addExtra(fmt.Sprintf("round%d_throughput_rps", i+1), tps[i], "1/s")
		res.addExtra(fmt.Sprintf("round%d_cpu_ms_per_req", i+1), cpus[i], "ms")
	}
	for i, s := range setups {
		res.addExtra(fmt.Sprintf("setup%d_s", i+1), s, "s")
	}
	res.addMeta("open_rps", sp.openRPS)
	res.addMeta("open_samples", len(all))
	res.addMeta("open_read_samples", len(reads))
	res.addMeta("open_write_samples", len(writes))
	res.addMeta("p95_samples_beyond", len(all)-int(math.Ceil(0.95*float64(len(all)))))
	res.addMeta("closed_clients", 2)
	res.addMeta("closed_requests", closed.sent)
	res.addMeta("rounds", rounds)
	res.addMeta("ops_per_write", sp.batchOps)
	res.addMeta("triples", after)
	res.attempted, res.failed = t.attempted, t.failed
	res.correct = t.failed == 0
	return res, nil
}

// warmUpClosed is how long the untimed closed loop of the warm-up runs.
// Without it the first round's CPU per request ran up to a third above the
// later rounds' while the server's heap and caches grew.
const warmUpClosed = 2 * time.Second

// warmUp fills each role's view cache and the connection pool, then runs
// the closed loop untimed, before anything is timed.
func warmUp(ctx context.Context, c *child, ref *reference, t *tally, sp spec, lanes [2]*lane) error {
	if sp.writeEvery != 1 {
		for k := kindHazmat; k <= kindView; k++ {
			send(ctx, c, ref, t, request{kind: k, path: readPaths[k]})
		}
	}
	for i := 0; i < 10; i++ {
		for _, l := range lanes {
			send(ctx, c, ref, t, l.nextRequest())
		}
	}
	_, err := closedLoop(ctx, c, ref, t, lanes, warmUpClosed)
	return err
}

func latencies(ss []sample) (all, reads, writes []float64) {
	for _, s := range ss {
		v := ms(s.latency)
		all = append(all, v)
		if s.kind.isRead() {
			reads = append(reads, v)
		} else {
			writes = append(writes, v)
		}
	}
	sort.Float64s(all)
	sort.Float64s(reads)
	sort.Float64s(writes)
	return all, reads, writes
}

// makeRunDir creates a fresh directory for one run under work.
func makeRunDir(work, prefix string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, prefix)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
