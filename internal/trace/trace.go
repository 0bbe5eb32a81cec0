// Package trace holds the paper's kernel names, the fold of per-run
// accumulator events and sweep gauges, the fixed-bucket latency histograms,
// and the one Prometheus text writer the serving layer renders /metrics
// with. Per-kernel wall time is not recorded here: it lives in the obs span
// tree and the tracer's per-name span totals.
package trace

// Kernel names matching the paper's decomposition of HyPC-Map.
const (
	KernelPageRank          = "PageRank"
	KernelFindBestCommunity = "FindBestCommunity"
	KernelConvert2SuperNode = "Convert2SuperNode"
	KernelUpdateMembers     = "UpdateMembers"
)

// Kernels returns the four kernel names in name order, the order /metrics
// and infomap -stats list them in.
func Kernels() []string {
	return []string{KernelConvert2SuperNode, KernelFindBestCommunity, KernelPageRank, KernelUpdateMembers}
}
