package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload; they
// are what BENCHMARK.json bounds. failed_frac is printed beside them but is
// not among them: it is zero on a healthy run, and the result line already
// carries attempted and failed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"searches_per_s", "1/s"},
	{"goodput_qps", "1/s"},
	{"knee_qps", "1/s"},
	{"source_tuples_per_search", "tuples"},
	{"virtual_latency_mean_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports on every workload. Unless a
// name says otherwise a value is per search.
var perLayer = []metricDef{
	{"candidates.expand_ms", "ms"},
	{"candidates.cqs", "count"},
	{"mqo.optimize_ms", "ms"},
	{"mqo.search_nodes", "count"},
	{"mqo.candidates", "count"},
	{"qsm.graft_ms", "ms"},
	{"qsm.replay_tuples", "tuples"},
	{"qsm.sync_ms", "ms"},
	{"atc.execute_ms", "ms"},
	{"atc.rounds", "count"},
	{"operator.stream_tuples", "tuples"},
	{"operator.probe_calls", "count"},
	{"operator.probe_hit_rate", "ratio"},
	{"operator.join_inserts", "count"},
	{"operator.join_probes", "count"},
	{"state.evictions", "count"},
	{"state.spill_rows_written", "rows"},
	{"state.spill_rows_read", "rows"},
	{"state.revivals_spill", "count"},
	{"state.revivals_source", "count"},
	{"state.resident_rows", "rows"},
	{"state.shared_disk_frac", "ratio"},
	{"admission.batch_occupancy", "queries"},
	{"admission.shed_frac", "ratio"},
	{"admission.shed_frac_deadline", "ratio"},
	{"admission.shed_frac_queue_full", "ratio"},
	{"router.sharing_miss_rate", "ratio"},
	{"fleet.rpc_ms", "ms"},
	{"fleet.wire_ms", "ms"},
	{"fleet.rpc_kb", "KB"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.allocs_per_search", "count"},
	{"go.alloc_kb_per_search", "KB"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.wall_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
}

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run measured and checked.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// notes are human-readable lines printed before the result line: sample
	// counts, check outcomes, context for a metric.
	notes []string
}

func newReport() *report { return &report{correct: true, metrics: map[string]metric{}} }

// set records a metric, taking its unit from the definition lists.
func (r *report) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// note adds a human-readable line.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records the outcome of an answer or consistency check; a failed
// check marks the whole run incorrect.
func (r *report) check(name string, ok bool, detail string) {
	verdict := "ok"
	if !ok {
		verdict = "MISMATCH"
		r.correct = false
	}
	r.note("check %s: %s (%s)", name, verdict, detail)
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undefined metric " + name)
}

// missing lists the metrics of defs the report lacks, and the ones it has
// that defs does not name.
func (r *report) missing(defs []metricDef) []string {
	var out []string
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if _, ok := r.metrics[d.name]; !ok {
			out = append(out, "missing "+d.name)
		}
	}
	for name := range r.metrics {
		if !want[name] {
			out = append(out, "extra "+name)
		}
	}
	sort.Strings(out)
	return out
}

// write prints the notes, every metric by name with its unit, and last the
// one-line JSON result.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range defs {
		m := r.metrics[d.name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
