package simtrace

// NearestRank returns the 1-based nearest rank of the q-th percentile
// (0 ≤ q ≤ 100) among n ≥ 1 ascending samples: ⌈q·n/100⌉, at least 1. It
// is the one percentile rule of the exact latency reports; Histogram's
// Quantile is a bucket approximation, not a sample value.
func NearestRank(n, q int) int {
	rank := (n*q + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return rank
}

// Percentile returns the exact nearest-rank q-th percentile of sorted
// (ascending) values, 0 when empty.
func Percentile(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[NearestRank(len(sorted), q)-1]
}
