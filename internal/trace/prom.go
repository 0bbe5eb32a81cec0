package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"github.com/asamap/asamap/internal/graph"
)

// WritePrometheus renders series in Prometheus text exposition format: every
// key of counters, gauges and histograms in key order under the namespace
// prefix ns_, with one # TYPE line per family (a key up to its label set). A
// family is a counter when its name ends in _total or _sum and a gauge
// otherwise. Counters print as integers, gauges as the shortest decimal that
// round-trips, and histograms through HistogramSnapshot.WritePrometheus.
func WritePrometheus(w io.Writer, ns string, counters map[string]uint64, gauges map[string]float64, histograms map[string]HistogramSnapshot) error {
	keys := slices.Concat(graph.SortedKeys(counters), graph.SortedKeys(gauges), graph.SortedKeys(histograms))
	slices.Sort(keys)
	bw := bufio.NewWriter(w)
	family := ""
	for _, k := range slices.Compact(keys) {
		if h, ok := histograms[k]; ok {
			h.WritePrometheus(bw, ns+"_"+k) // bw keeps the first error for Flush
			continue
		}
		if f, _, _ := strings.Cut(k, "{"); f != family {
			family = f
			kind := "gauge"
			if strings.HasSuffix(f, "_total") || strings.HasSuffix(f, "_sum") {
				kind = "counter"
			}
			fmt.Fprintf(bw, "# TYPE %s_%s %s\n", ns, f, kind)
		}
		if v, ok := counters[k]; ok {
			fmt.Fprintf(bw, "%s_%s %d\n", ns, k, v)
		} else {
			fmt.Fprintf(bw, "%s_%s %s\n", ns, k, strconv.FormatFloat(gauges[k], 'f', -1, 64))
		}
	}
	return bw.Flush()
}
