package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/asamap/asamap/internal/obs"
)

// opMode tells a workload how to run one operation.
type opMode struct {
	warmup bool // discarded; its time counts toward setup_s
	traced bool // record spans and per-layer samples
	prefix bool // one of the run's first ops, whose counts are reported
	again  bool // rerun the previous op's input (see shape.cycle)
}

// opSample is what one measured operation reports to the harness.
type opSample struct {
	latency    time.Duration // the user-visible operation, checks excluded
	codelength float64       // codelength of the partition the op returned
	// ownAlloc is what the benchmark's own work inside the op allocated:
	// planning its input and checking its output. The harness leaves it out
	// of alloc_mb_per_op, as it leaves the op's time beyond latency out of
	// the window.
	ownAlloc uint64
}

// workload is one benchmark input set. Ops run strictly one after another
// (a closed loop with one caller), so a workload walks its own
// seed-determined op sequence with a private counter.
type workload interface {
	// setup builds the inputs from the seed and starts what ops need.
	setup(ctx context.Context) error
	// op runs the next operation of the sequence and checks its output; a
	// non-nil error counts the op as failed.
	op(ctx context.Context, mode opMode) (opSample, error)
	// finish runs the checks that stay outside the timed window and derives
	// the per-layer values that need them.
	finish(ctx context.Context) error
	close()
}

// shape fixes the op counts of a workload.
type shape struct {
	warmup int // ops discarded before the window opens
	prefix int // leading measured ops whose counts are reported
	minOps int // measured ops the window runs even past its deadline
	// cycle is how many ops the input sequence takes to come round again,
	// as far as latency goes: the graphs requests rotate over, or the depths
	// of a lineage. A traced run traces whole cycles (see tracedOp), so its
	// traced and untraced ops run the same inputs. 0 means a run is too
	// short to repeat its inputs; the traced run then runs each input twice
	// in a row, once traced and once not.
	cycle int
}

// tracedOp reports whether op j past the prefix of a traced run is traced.
// Ops go in blocks of one cycle; of each two blocks one is traced, and which
// one alternates, so neither half always runs first.
func tracedOp(j, cycle int) bool {
	b := j / cycle
	return (b+b/2)%2 == 1
}

// recorder collects per-layer values. add samples a timing or ratio per
// traced op (reported as the median); count sums a value over the prefix
// ops (reported as the mean, identical across runs of one seed); set fixes
// a single value.
type recorder struct {
	samples map[string][]float64
	sums    map[string]float64
	ns      map[string]int
	fixed   map[string]float64
	traces  [][]obs.SpanData // every traced op's spans, written out at exit
}

func newRecorder() *recorder {
	return &recorder{
		samples: map[string][]float64{},
		sums:    map[string]float64{},
		ns:      map[string]int{},
		fixed:   map[string]float64{},
	}
}

// finite drops values a zero denominator made meaningless (a kernel too
// short for the microsecond span clock, say); such an op adds no sample.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (r *recorder) add(name string, v float64) {
	if finite(v) {
		r.samples[name] = append(r.samples[name], v)
	}
}

func (r *recorder) count(name string, v float64) {
	if finite(v) {
		r.sums[name] += v
		r.ns[name]++
	}
}

func (r *recorder) set(name string, v float64) {
	if finite(v) {
		r.fixed[name] = v
	}
}

func (r *recorder) keep(spans []obs.SpanData) { r.traces = append(r.traces, spans) }

func (r *recorder) value(name string) float64 {
	if v, ok := r.fixed[name]; ok {
		return v
	}
	if n := r.ns[name]; n > 0 {
		return r.sums[name] / float64(n)
	}
	return median(r.samples[name])
}

// quantile is the linearly interpolated q-quantile of the raw samples (the
// "type 7" estimator), 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapLiveMB is the heap still reachable after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocBytes is the heap's cumulative allocation. runtime.ReadMemStats
// flushes the per-P allocation caches first, so the count is exact at any
// moment, as brackets around work inside an op need.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// own runs f, the benchmark's own work inside an op, and adds what it
// allocated to *alloc.
func own(alloc *uint64, f func() error) error {
	a := allocBytes()
	err := f()
	*alloc += allocBytes() - a
	return err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64 // end-to-end
	layers            map[string]float64 // per-layer
	report            map[string]any
	traces            [][]obs.SpanData
}

var errDeadline = errors.New("run exceeded its time budget")

// maxRun bounds a run's total wall time well inside the 180 s a run may take.
const maxRun = 150 * time.Second

// postOp is one op past the prefix of a traced run.
type postOp struct {
	j      int
	traced bool
	ms     float64
}

// opTime is when one op of the window ran, and how long its parts took.
type opTime struct {
	start, end time.Time
	own        time.Duration // the benchmark's own work inside the op
	latency    time.Duration // 0 for a failed op
}

// measure runs one workload: set-ups, warm-up, the timed window, and the
// post-window checks. newW builds a fresh instance per set-up repetition.
// Every time an end-to-end metric reports is scaled to nominal host speed by
// the probe samples taken around it; the report line keeps the raw figures.
func measure(ctx context.Context, cfg config, sh shape, newW func(*recorder) workload) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, maxRun)
	defer cancel()
	out := &outcome{metrics: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
	rec := newRecorder()
	pr, err := newProbe(cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	defer pr.close()

	// Set-up, warm-up ops included, runs several times and reports the
	// median, so one slow start does not read as a regression; the last
	// instance is the one measured.
	var w workload
	var setups, rawSetups []float64
	pr.sample()
	for r := 0; r < cfg.setupReps; r++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		rec = newRecorder()
		w = newW(rec)
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		for i := 0; i < sh.warmup; i++ {
			if _, err := w.op(ctx, opMode{warmup: true}); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		end := time.Now()
		pr.sample()
		rawSetups = append(rawSetups, end.Sub(t).Seconds())
		setups = append(setups, end.Sub(t).Seconds()*pr.scale(t, end))
	}
	defer w.close()
	out.metrics["setup_s"] = median(setups)

	cycle := max(sh.cycle, 1)
	var ops []opTime
	var codelengths []float64
	var post []postOp
	var ownAlloc uint64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	first := len(pr.samples)
	pr.sample()
	cpu0, probeCPU0 := cpuTime(), pr.cpu
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < sh.minOps || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			return nil, errDeadline
		}
		if time.Since(pr.last()) >= probeEvery {
			pr.sample()
		}
		// A traced run traces its prefix whole (its counts are reported);
		// past it, traced and untraced ops run the same inputs, so their
		// difference is the cost of tracing.
		j := i - sh.prefix
		mode := opMode{prefix: j < 0}
		if cfg.trace {
			mode.traced = j < 0 || tracedOp(j, cycle)
			mode.again = sh.cycle == 0 && j >= 0 && j%2 == 1
		}
		t := time.Now()
		s, err := w.op(ctx, mode)
		op := opTime{start: t, end: time.Now()}
		out.attempted++
		if i == sh.prefix-1 {
			// What the process retains is read after a fixed number of ops,
			// not at the window's end: the server keeps every version it
			// made, and a faster program would otherwise read as a larger one.
			out.metrics["heap_live_mb"] = heapLiveMB()
		}
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
			ops = append(ops, op)
			continue
		}
		op.own = op.end.Sub(op.start) - s.latency
		op.latency = s.latency
		ops = append(ops, op)
		ownAlloc += s.ownAlloc
		codelengths = append(codelengths, s.codelength)
		if cfg.trace && j >= 0 {
			post = append(post, postOp{j, mode.traced, ms(s.latency)})
		}
	}
	pr.sample()
	cpu := cpuTime() - cpu0 - (pr.cpu - probeCPU0)
	runtime.GC()
	runtime.ReadMemStats(&ms1)

	if err := w.finish(ctx); err != nil {
		out.failed++
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	out.traces = rec.traces

	// The window is the ops' own time: the probe, the heap reading and the
	// benchmark's work inside ops stay out of it.
	var lat, rawLat []float64
	var window, rawWindow float64
	for _, op := range ops {
		f := pr.scale(op.start, op.end)
		busy := (op.end.Sub(op.start) - op.own).Seconds()
		window += busy * f
		rawWindow += busy
		if op.latency > 0 {
			lat = append(lat, ms(op.latency)*f)
			rawLat = append(rawLat, ms(op.latency))
		}
	}
	n := float64(len(lat))
	if n == 0 {
		return out, nil
	}
	p90 := quantile(lat, 0.9)
	beyond := 0
	for _, l := range lat {
		if l > p90 {
			beyond++
		}
	}
	out.metrics["latency_ms_p50"] = median(lat)
	out.metrics["latency_ms_p90"] = p90
	out.metrics["throughput_per_s"] = n / window
	out.metrics["codelength_bits"] = median(codelengths)
	out.metrics["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc-ownAlloc) / (1 << 20) / n

	attempted := float64(out.attempted)
	rec.set("runtime.cpu_ms_per_op", ms(cpu)/attempted)
	rec.set("runtime.gc_cycles_per_op", float64(ms1.NumGC-ms0.NumGC)/attempted)
	rec.set("runtime.gc_pause_ms_per_op", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/attempted)
	probes := pr.times(first)
	rec.set("host.ref_ms", median(probes))
	pct, traced, plain := traceOverhead(post, cycle, out.attempted-sh.prefix)
	if traced > 0 && plain > 0 {
		rec.set("obs.trace_overhead_pct", pct)
	}
	for _, m := range perLayer {
		out.layers[m.Name] = rec.value(m.Name)
	}

	out.report["samples"] = len(lat)
	out.report["beyond_p90"] = beyond
	out.report["warmup_ops"] = sh.warmup
	out.report["traced_ops"] = traced
	out.report["untraced_ops"] = plain
	out.report["window_s"] = rawWindow
	out.report["setup_runs_s"] = rawSetups
	out.report["raw_latency_ms_p50"] = median(rawLat)
	out.report["raw_throughput_per_s"] = n / rawWindow
	out.report["probe_threads"] = len(pr.graphs)
	out.report["probe_samples"] = len(probes)
	out.report["probe_ms_quartiles"] = []float64{quantile(probes, 0.25), median(probes), quantile(probes, 0.75)}
	out.report["setup_probe_ms"] = median(pr.times(0)[:first])
	out.report["error_rate"] = float64(out.failed) / attempted
	return out, nil
}

// traceOverhead is how much slower the traced ops past the prefix ran than
// the untraced ones, in percent of the untraced median. It counts only the
// complete block pairs of the n ops past the prefix, in which both halves
// ran the same inputs, and returns how many ops of each kind it compared.
func traceOverhead(post []postOp, cycle, n int) (pct float64, traced, plain int) {
	full := n / (2 * cycle) * (2 * cycle)
	var t, u []float64
	for _, p := range post {
		switch {
		case p.j >= full:
		case p.traced:
			t = append(t, p.ms)
		default:
			u = append(u, p.ms)
		}
	}
	if len(t) == 0 || len(u) == 0 {
		return 0, len(t), len(u)
	}
	base := median(u)
	return 100 * (median(t) - base) / base, len(t), len(u)
}
