package crp

import (
	"errors"
	"sort"
)

// DistanceFunc returns the ground-truth network distance (the paper uses
// measured RTT in milliseconds) between two nodes. It must be symmetric and
// non-negative. EvaluateClusters calls it from the caller's goroutine only.
type DistanceFunc func(a, b NodeID) float64

// ClusterStats captures the paper's cluster-quality metrics for one cluster
// (§V-B, Fig. 6): the average intracluster distance of members to the
// center, the cluster diameter (max pairwise member distance), and the
// average intercluster distance from this center to all other cluster
// centers.
type ClusterStats struct {
	Cluster  Cluster
	Intra    float64
	Diameter float64
	Inter    float64
}

// Good reports whether the cluster lands in the paper's "good" region of
// Fig. 6: its members are closer to their own center than the other cluster
// centers are (intercluster distance exceeds intracluster distance).
func (s ClusterStats) Good() bool { return s.Inter > s.Intra }

// EvaluateClusters computes ClusterStats for every cluster of size ≥ 2
// (singletons have no intracluster structure to evaluate). Intercluster
// distances are computed against the centers of all clusters, including
// singletons, since those are genuine alternative attachment points.
func EvaluateClusters(clusters []Cluster, dist DistanceFunc) ([]ClusterStats, error) {
	if dist == nil {
		return nil, errors.New("crp: nil DistanceFunc")
	}
	var out []ClusterStats
	for i, c := range clusters {
		if c.Size() < 2 {
			continue
		}
		s := ClusterStats{Cluster: c}

		n := 0
		for _, m := range c.Members {
			if m == c.Center {
				continue
			}
			s.Intra += dist(m, c.Center)
			n++
		}
		if n > 0 {
			s.Intra /= float64(n)
		}

		for ai := 0; ai < len(c.Members); ai++ {
			for bi := ai + 1; bi < len(c.Members); bi++ {
				if d := dist(c.Members[ai], c.Members[bi]); d > s.Diameter {
					s.Diameter = d
				}
			}
		}

		nOther := 0
		for j, other := range clusters {
			if j == i {
				continue
			}
			s.Inter += dist(c.Center, other.Center)
			nOther++
		}
		if nOther > 0 {
			s.Inter /= float64(nOther)
		}
		out = append(out, s)
	}
	return out, nil
}

// Summary aggregates a clustering run the way the paper's Table I does.
// "Clustered" counts only nodes in clusters of size ≥ 2; NumClusters
// likewise counts only those clusters.
type Summary struct {
	TotalNodes     int
	NodesClustered int
	FracClustered  float64
	NumClusters    int
	MeanSize       float64
	MedianSize     float64
	MaxSize        int
}

// Summarize computes Table I-style statistics over a clustering of
// totalNodes nodes.
func Summarize(clusters []Cluster, totalNodes int) Summary {
	s := Summary{TotalNodes: totalNodes}
	var sizes []int
	for _, c := range clusters {
		if c.Size() < 2 {
			continue
		}
		sizes = append(sizes, c.Size())
		s.NodesClustered += c.Size()
		if c.Size() > s.MaxSize {
			s.MaxSize = c.Size()
		}
	}
	s.NumClusters = len(sizes)
	if totalNodes > 0 {
		s.FracClustered = float64(s.NodesClustered) / float64(totalNodes)
	}
	if len(sizes) > 0 {
		sum := 0
		for _, sz := range sizes {
			sum += sz
		}
		s.MeanSize = float64(sum) / float64(len(sizes))
		sort.Ints(sizes)
		if len(sizes)%2 == 1 {
			s.MedianSize = float64(sizes[len(sizes)/2])
		} else {
			s.MedianSize = float64(sizes[len(sizes)/2-1]+sizes[len(sizes)/2]) / 2
		}
	}
	return s
}

// GoodClusterCounts buckets good clusters by diameter the way the paper's
// Fig. 7 does. buckets holds the bucket upper bounds in ms (the paper uses
// 25 and 75); the returned slice has one count per bucket, where bucket i
// covers diameters in (bounds[i-1], bounds[i]] (the first bucket starts at
// 0, inclusive). Clusters with diameters beyond the last bound, and
// non-good clusters, are not counted.
func GoodClusterCounts(stats []ClusterStats, bounds []float64) []int {
	counts := make([]int, len(bounds))
	for _, s := range stats {
		if !s.Good() {
			continue
		}
		for i, b := range bounds {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if s.Diameter >= lower && s.Diameter <= b {
				if i == 0 || s.Diameter > lower {
					counts[i]++
				}
				break
			}
		}
	}
	return counts
}
