// Command perfbench is the repository's benchmark. It drives three
// workloads through the public parc API over loopback TCP, with every node
// a parc.ServeNode in this process:
//
//   - echo: 32 closed-loop callers making synchronous 64 B parc.Call echoes
//     on one remote object;
//   - poisson: the same echo in an open loop at 5,000 Poisson arrivals per
//     second, through parc.CallAsync and a parc.Then continuation, each
//     call timed from its due time;
//   - crypt: JGF Crypt farmed over 3 nodes, 3 MiB jobs in 24 chunks, each
//     job checked bit for bit against the sequential jgf.IdeaCrypt.
//
// Usage:
//
//	perfbench --workload echo|poisson|crypt --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the workload for S seconds and prints the
// end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
// separate run that also replays the workload's call one layer at a time
// (wire, transport, remoting, dispatch, core, parc) and records spans
// around each layer's public functions, written to
// .bench_build/traces/<workload>.jsonl.gz (the last traced run of each
// workload is kept). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/jgf"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	tails     map[string]metric // see tailUnits
}

// setupReps is how many times an untraced run boots, joins, creates and
// warms up; setup_s is the median.
const setupReps = 9

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "echo, poisson or crypt")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload != "echo" && cfg.workload != "poisson" && cfg.workload != "crypt" {
		fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	env := readEnvironment()
	var res *result
	var err error
	if cfg.trace {
		res, err = tracedRun(cfg, env)
	} else {
		res, err = untracedRun(cfg)
	}
	if err != nil {
		fail(err)
	}
	out := json.NewEncoder(os.Stdout)
	info := map[string]any{"environment": env, "workload": cfg.workload, "seed": cfg.seed}
	if res.tails != nil {
		info["tails"] = res.tails
	}
	if err := out.Encode(info); err != nil {
		fail(err)
	}
	if err := out.Encode(res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEndUnits and perLayerUnits are the metrics each kind of run
// reports, on every workload; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"calls_per_s":     "1/s",
	"call_p50_us":     "us",
	"cpu_us_per_call": "us",
	"job_p50_ms":      "ms",
	"cpu_ms_per_job":  "ms",
	"peak_rss_mb":     "MiB",
}

// tailUnits are the latency tails an untraced run prints beside the
// environment, ungated: on a shared virtual machine their run-to-run
// spread follows the host's scheduling stalls, not the program.
var tailUnits = map[string]string{
	"call_p99_us": "us",
	"job_p90_ms":  "ms",
}

var perLayerUnits = map[string]string{
	"wire.encode_ns":                    "ns",
	"wire.decode_ns":                    "ns",
	"wire.allocs_per_call":              "count",
	"wire.self_us":                      "us",
	"transport.write_syscalls_per_call": "count",
	"transport.read_syscalls_per_call":  "count",
	"transport.bytes_written_per_call":  "B",
	"transport.rtt_us":                  "us",
	"transport.cpu_us_per_call":         "us",
	"remoting.call_us":                  "us",
	"remoting.cpu_us_per_call":          "us",
	"remoting.allocs_per_call":          "count",
	"remoting.self_us":                  "us",
	"dispatch.invoke_ns":                "ns",
	"dispatch.allocs":                   "count",
	"core.call_us":                      "us",
	"core.cpu_us_per_call":              "us",
	"core.allocs_per_call":              "count",
	"core.self_us":                      "us",
	"core.create_ms":                    "ms",
	"core.destroy_ms":                   "ms",
	"core.sync_calls":                   "count",
	"core.async_calls":                  "count",
	"core.sheds":                        "count",
	"core.deadline_drops":               "count",
	"parc.call_us":                      "us",
	"parc.cpu_us_per_call":              "us",
	"parc.submit_us":                    "us",
	"parc.scatter_submit_ms":            "ms",
	"parc.gather_wait_ms":               "ms",
	"runtime.allocs_per_call":           "count",
	"runtime.bytes_per_call":            "B",
	"runtime.gc_cycles":                 "count",
	"runtime.gc_pause_ms":               "ms",
	"jgf.seq_ms":                        "ms",
	"loadgen.late_p99_us":               "us",
	"ladder.call_us":                    "us",
	"ladder.coverage":                   "ratio",
	"trace.overhead_pct":                "%",
	"trace.root_self_us":                "us",
	"trace.spans":                       "count",
	"error_ratio":                       "ratio",
}

// emit builds the metrics object from values, requiring exactly the names
// in units and finite values.
func emit(values map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	var missing []string
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", name, v)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(cfg config) (*result, error) {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	in, err := makeInputs(cfg.seed, dur)
	if err != nil {
		return nil, err
	}
	b := &bench{workload: cfg.workload, in: in}
	defer b.teardown()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		b.teardown()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o, err := b.measure(dur, nil)
	if err != nil {
		return nil, err
	}
	// Read the peak before the samples are sorted and split.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	v := b.endToEnd(o)
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = rss
	res, err := b.result(o, v, endToEndUnits)
	if err != nil {
		return nil, err
	}
	res.tails = map[string]metric{
		"call_p99_us": {o.calls.quantile(99, time.Microsecond, "call_p99_us"), tailUnits["call_p99_us"]},
		"job_p90_ms":  {o.ops.quantile(90, time.Millisecond, "job_p90_ms"), tailUnits["job_p90_ms"]},
	}
	return res, nil
}

// result wraps one measured phase and its metric values.
func (b *bench) result(o *outcome, values map[string]float64, units map[string]string) (*result, error) {
	m, err := emit(values, units)
	if err != nil {
		return nil, err
	}
	if o.attempted() == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", b.workload)
	}
	if o.mismatch > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d outputs did not match\n", b.workload, o.mismatch)
	}
	return &result{
		Correct:   o.mismatch == 0 && b.violations == 0,
		Attempted: o.attempted(),
		Failed:    o.failed + o.mismatch,
		Metrics:   m,
	}, nil
}

// endToEnd derives the end-to-end metrics of a measured phase, split into
// one-second windows by completion time. Rates and CPU per operation are
// medians over the windows when every window counts at least minWindowOps
// operations, and latency percentiles when every window's sample supports
// them; otherwise they are taken over the whole phase. On echo and poisson
// a job is one call; on crypt a job is 24 Crypt calls.
func (b *bench) endToEnd(o *outcome) map[string]float64 {
	perJob := 1.0
	if b.workload == "crypt" {
		perJob = cryptChunks
	}
	jobsPerSec, cpuPerJob := o.ops.rates()
	if len(jobsPerSec) == 0 || o.ops.minOps() < minWindowOps {
		jobsPerSec = []float64{float64(o.ok) / o.sample.wall.Seconds()}
		cpuPerJob = []float64{float64(o.sample.cpu) / float64(o.attempted())}
	}
	return map[string]float64{
		"calls_per_s":     median(jobsPerSec) * perJob,
		"cpu_us_per_call": median(cpuPerJob) / perJob / 1e3,
		"cpu_ms_per_job":  median(cpuPerJob) / 1e6,
		"call_p50_us":     o.calls.quantile(50, time.Microsecond, "call_p50_us"),
		"job_p50_ms":      o.ops.quantile(50, time.Millisecond, "job_p50_ms"),
	}
}

// tracedRun measures the per-layer metrics: the workload untraced (for
// the kernel and allocator counters and the runtime's Stats deltas), the
// workload traced (for its spans and the tracing overhead), then the
// ladder and probes at the workload's call shape.
func tracedRun(cfg config, env environment) (*result, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	in, err := makeInputs(cfg.seed, share(0.2))
	if err != nil {
		return nil, err
	}
	b := &bench{workload: cfg.workload, in: in}
	defer b.teardown()
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	v := map[string]float64{"jgf.seq_ms": median(in.seqTimes)}

	// Untraced workload: counters and exact Stats deltas.
	before := b.ns.stats()
	a, err := b.measure(share(0.2), nil)
	if err != nil {
		return nil, err
	}
	after := b.ns.stats()
	b.checkStats(a, before, after, v)
	calls := float64(a.issued)
	v["transport.write_syscalls_per_call"] = float64(a.sample.io.WriteSyscalls) / calls
	v["transport.read_syscalls_per_call"] = float64(a.sample.io.ReadSyscalls) / calls
	v["transport.bytes_written_per_call"] = float64(a.sample.io.WriteBytes) / calls
	v["runtime.allocs_per_call"] = float64(a.sample.mem.Mallocs) / calls
	v["runtime.bytes_per_call"] = float64(a.sample.mem.TotalAlloc) / calls
	v["runtime.gc_cycles"] = float64(a.sample.mem.NumGC)
	v["runtime.gc_pause_ms"] = float64(a.sample.mem.PauseTotalNs) / 1e6
	v["error_ratio"] = float64(a.failed+a.mismatch) / float64(a.attempted())

	// Traced workload.
	tr := newTracer()
	bt, err := b.measure(share(0.2), tr)
	if err != nil {
		return nil, err
	}
	opA := a.ops.quantile(50, time.Microsecond, "untraced op p50")
	opB := bt.ops.quantile(50, time.Microsecond, "traced op p50")
	v["trace.overhead_pct"] = (opB - opA) / opA * 100
	root := map[string]string{"echo": "parc.Call", "poisson": "poisson.call", "crypt": "crypt.job"}[b.workload]
	v["trace.root_self_us"] = median(tr.selfOf(root)) / 1e3

	// Ladder at the workload's call shape.
	var sh shape
	switch b.workload {
	case "echo":
		sh = echoShape(in, echoCallers)
	case "poisson":
		sh = echoShape(in, 1) // about one call is in flight at a time
	default:
		sh = cryptShape(in)
	}
	var lad ladder
	if b.workload == "crypt" {
		lad, err = runLadder[jgf.CryptWorker](b.ns, sh, share(0.08), tr)
	} else {
		lad, err = runLadder[Echo](b.ns, sh, share(0.08), tr)
	}
	if err != nil {
		return nil, err
	}
	lad.into(v)
	if b.workload != "poisson" {
		v["parc.submit_us"] = lad.submitUs
	} else {
		v["parc.submit_us"] = a.submitted.quantile(50, time.Microsecond, "parc.submit_us")
	}
	v["ladder.coverage"] = lad.parc.callUs / a.calls.quantile(50, time.Microsecond, "call p50")

	// Probes.
	if b.workload != "crypt" {
		if err := lifecycleProbe(b.ns, in, share(0.06), tr); err != nil {
			return nil, err
		}
	}
	late := a.late
	if b.workload != "poisson" {
		late = generatorProbe(cfg.seed, share(0.03))
	}
	v["loadgen.late_p99_us"] = late.quantile(99, time.Microsecond, "loadgen.late_p99_us")
	v["core.create_ms"] = median(tr.perParent("parc.NewAt")) / 1e6
	v["core.destroy_ms"] = median(tr.perParent("parc.Object.Destroy")) / 1e6
	v["parc.scatter_submit_ms"] = median(tr.named("parc.Scatter")) / 1e6
	v["parc.gather_wait_ms"] = median(tr.named("parc.Gather")) / 1e6
	v["trace.spans"] = float64(tr.count())

	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, b.workload+".jsonl.gz")
	header := map[string]any{"environment": env, "workload": b.workload, "seed": cfg.seed}
	if err := tr.write(path, header); err != nil {
		return nil, err
	}
	return b.result(a, v, perLayerUnits)
}
