// Package crp implements CDN-based Relative network Positioning (CRP), the
// approach introduced by Su, Choffnes, Bustamante and Kuzmanovic in
// "Relative Network Positioning via CDN Redirections" (IEEE ICDCS 2008).
//
// CRP estimates the relative network position of hosts without any direct
// probing. Each host passively (or with infrequent DNS lookups) records the
// CDN replica servers it is redirected to over time, summarized as a ratio
// map ν_N = ⟨(r_k, f_k), …⟩ where f_i is the fraction of redirections toward
// replica r_i. Because large CDNs redirect on network conditions, two hosts
// whose ratio maps have high cosine similarity are likely close to each
// other in the network; hosts with orthogonal maps are likely far apart.
//
// The package provides the paper's building blocks and both of its
// applications:
//
//   - Tracker accumulates redirection observations with the probe-interval
//     and window-size semantics studied in the paper's §VI (Figs. 8–9).
//   - CosineSimilarity compares ratio maps (§III-B).
//   - Service is the stand-alone positioning service sketched in §III-B,
//     answering the three query types of §IV-B for many nodes concurrently:
//     closest-node selection (ClosestTo, TopK; §IV-A) and clustering.
//     ClusterAll is the clustering entry point, the Strongest Mappings First
//     algorithm with its optional second pass (§V-B); EvaluateClusters /
//     Summarize compute the paper's cluster-quality metrics.
//   - SelectClosest is closest-node selection over ratio maps held outside
//     a Service, e.g. a history replayed under its own window.
//
// CRP is not a general latency-prediction system: if two hosts share no
// replica servers, their similarity is zero and CRP can only report that
// they are unlikely to be near one another.
package crp
