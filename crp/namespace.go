package crp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// Multi-CDN namespaces. The paper's own future work is combining redirection
// signals from multiple CDNs; here each CDN gets a namespace and a replica
// observed through CDN ns is recorded under the qualified identity
// "<ns>!<replica>". Qualification lives in ID space, not in a parallel
// schema: ratio maps, compiled vectors, the sharded store, snapshots, the
// delta protocol and both wire codecs all carry namespaced replicas as
// ordinary ReplicaIDs, so a 1-namespace deployment (the default namespace,
// which qualifies to the bare replica ID) is byte-identical to the
// pre-namespace system at every layer. Because compiled vectors sort by
// replica ID and every qualified ID of a namespace shares the "<ns>!"
// prefix, each non-default namespace's entries form one contiguous sub-vector
// of every compiled vector — the property the fused kernel exploits.

// Namespace names one CDN's redirection signal. The default (empty)
// namespace is the legacy single-CDN signal: it qualifies replica IDs to
// themselves.
type Namespace string

// DefaultNamespace is the single-CDN namespace; Qualify under it is the
// identity, which is what keeps 1-namespace deployments bit-identical to the
// pre-namespace seed path.
const DefaultNamespace Namespace = ""

// NamespaceSep separates the namespace from the replica identity inside a
// qualified ReplicaID. '!' sorts below every character that occurs in DNS
// names, so all qualified IDs of one namespace are lexicographically
// contiguous and precede any unqualified ID sharing the namespace string as
// a prefix.
const NamespaceSep = '!'

// MaxNamespaceBytes bounds a namespace name on every wire surface.
const MaxNamespaceBytes = 64

// Valid reports whether the namespace is well-formed: the default namespace,
// or a NUL-free UTF-8 string of at most MaxNamespaceBytes bytes that does
// not contain the separator.
func (ns Namespace) Valid() error {
	if ns == DefaultNamespace {
		return nil
	}
	if len(ns) > MaxNamespaceBytes {
		return fmt.Errorf("crp: namespace is %d bytes, limit %d", len(ns), MaxNamespaceBytes)
	}
	if !utf8.ValidString(string(ns)) {
		return fmt.Errorf("crp: namespace is not valid UTF-8")
	}
	for i := 0; i < len(ns); i++ {
		if ns[i] == NamespaceSep {
			return fmt.Errorf("crp: namespace contains the separator %q", NamespaceSep)
		}
		if ns[i] == 0 {
			return fmt.Errorf("crp: namespace contains a NUL byte")
		}
	}
	return nil
}

// Qualify returns the replica's identity under namespace ns. The default
// namespace qualifies to the bare ID.
func Qualify(ns Namespace, r ReplicaID) ReplicaID {
	if ns == DefaultNamespace {
		return r
	}
	return ReplicaID(string(ns) + string(NamespaceSep) + string(r))
}

// SplitReplica splits a possibly-qualified replica ID into its namespace and
// bare identity. IDs without a separator belong to the default namespace.
func SplitReplica(r ReplicaID) (Namespace, ReplicaID) {
	if i := strings.IndexByte(string(r), NamespaceSep); i >= 0 {
		return Namespace(r[:i]), r[i+1:]
	}
	return DefaultNamespace, r
}

// NamespaceOf returns the namespace a replica ID belongs to.
func NamespaceOf(r ReplicaID) Namespace {
	ns, _ := SplitReplica(r)
	return ns
}

// NamespaceView returns the sub-map of m belonging to namespace ns, with the
// qualified replica IDs preserved. The result is freshly allocated and NOT
// renormalized: its mass is the fraction of the node's probes that went
// through CDN ns, which is exactly the coverage signal fusion weights by.
func (m RatioMap) NamespaceView(ns Namespace) RatioMap {
	out := make(RatioMap)
	for r, f := range m {
		if NamespaceOf(r) == ns {
			out[r] = f
		}
	}
	return out
}

// Namespaces returns the namespaces present in the map, sorted.
func (m RatioMap) Namespaces() []Namespace {
	seen := make(map[Namespace]bool)
	for r := range m {
		seen[NamespaceOf(r)] = true
	}
	out := make([]Namespace, 0, len(seen))
	for ns := range seen {
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FusionConfig parameterizes the fused similarity kernel: per-CDN cosines
// combined by coverage-weighted mixing. A pair's coverage of one namespace is
// the smaller of the two nodes' probe mass in it (L1 ratio mass, each on
// [0,1]): a CDN only one side has history with carries no pair signal, and
// thin two-sided coverage is down-weighted proportionally.
type FusionConfig struct {
	// Weights optionally scales each namespace's contribution to the mix; an
	// absent namespace weighs 1. Zero or negative weight mutes a namespace;
	// a NaN or infinite weight is refused.
	Weights map[Namespace]float64
}

// fusionKernel is a compiled FusionConfig.
type fusionKernel struct {
	weights map[Namespace]float64
}

func newFusionKernel(cfg FusionConfig) (*fusionKernel, error) {
	for ns, w := range cfg.Weights {
		if err := ns.Valid(); err != nil {
			return nil, err
		}
		// A non-finite weight turns every fused similarity into NaN, which
		// has no place in the ranking order.
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("crp: fusion weight %v for namespace %q is not finite", w, ns)
		}
	}
	k := &fusionKernel{}
	if len(cfg.Weights) > 0 {
		k.weights = make(map[Namespace]float64, len(cfg.Weights))
		for ns, w := range cfg.Weights {
			k.weights[ns] = w
		}
	}
	return k, nil
}

func (k *fusionKernel) weightOf(ns Namespace) float64 {
	if k.weights == nil {
		return 1
	}
	if w, ok := k.weights[ns]; ok {
		return w
	}
	return 1
}

// nsAcc accumulates one namespace's per-pair statistics during the fused
// merge pass: dot product over matched replicas, each side's squared norm
// and L1 mass over its own replicas.
type nsAcc struct {
	ns           Namespace
	dot, a2, b2  float64
	massA, massB float64
}

// fusedAccs is the single-pass accumulation behind the fused kernel: one
// co-walk of both sorted vectors, bucketing every term by its replica's
// namespace. Per-namespace accumulation visits replicas in ascending ID
// order — the same order compileRatioMap and ratioVec.dot use — so each
// namespace's dot and norms are bit-identical to what the plain kernel
// would compute over that namespace's sub-vectors alone. Qualified
// namespaces are contiguous in the sorted order, so the bucket lookup is
// almost always a repeat of the previous hit; a short linear scan covers
// the interleaved default-namespace case.
func fusedAccs(a, b ratioVec, accs []nsAcc) []nsAcc {
	last := -1
	bucket := func(ns Namespace) *nsAcc {
		if last >= 0 && accs[last].ns == ns {
			return &accs[last]
		}
		for i := range accs {
			if accs[i].ns == ns {
				last = i
				return &accs[i]
			}
		}
		accs = append(accs, nsAcc{ns: ns})
		last = len(accs) - 1
		return &accs[last]
	}
	i, j := 0, 0
	for i < len(a.ids) || j < len(b.ids) {
		switch {
		case j >= len(b.ids) || (i < len(a.ids) && a.ids[i] < b.ids[j]):
			v := a.vals[i]
			acc := bucket(NamespaceOf(a.ids[i]))
			acc.a2 += v * v
			acc.massA += v
			i++
		case i >= len(a.ids) || a.ids[i] > b.ids[j]:
			v := b.vals[j]
			acc := bucket(NamespaceOf(b.ids[j]))
			acc.b2 += v * v
			acc.massB += v
			j++
		default:
			va, vb := a.vals[i], b.vals[j]
			acc := bucket(NamespaceOf(a.ids[i]))
			acc.dot += va * vb
			acc.a2 += va * va
			acc.massA += va
			acc.b2 += vb * vb
			acc.massB += vb
			i++
			j++
		}
	}
	return accs
}

// nsCosine finishes one namespace's cosine from its accumulated terms, with
// the same zero handling and drift clamping as ratioVec.cosine. The norms
// are square-rooted separately and multiplied — the exact float sequence of
// the plain kernel (compile-time sqrt per side, then a product) — so a
// single-namespace fused similarity is bit-identical to the plain one.
func (acc *nsAcc) nsCosine() float64 {
	if acc.dot == 0 {
		return 0
	}
	na, nb := math.Sqrt(acc.a2), math.Sqrt(acc.b2)
	if na == 0 || nb == 0 {
		return 0
	}
	sim := acc.dot / (na * nb)
	if sim > 1 {
		return 1
	}
	if sim < 0 {
		return 0
	}
	return sim
}

// cosine is the fused similarity of two compiled vectors: each namespace's
// cosine over its contiguous sub-vectors, mixed by coverage weight times the
// namespace's configured weight. A pair whose replicas all live in one
// namespace returns that namespace's cosine directly — bit-identical to the
// plain kernel, the property the 1-namespace back-compat gate pins.
func (k *fusionKernel) cosine(a, b ratioVec) float64 {
	var stack [4]nsAcc
	accs := fusedAccs(a, b, stack[:0])
	if len(accs) == 0 {
		return 0
	}
	if len(accs) == 1 {
		return accs[0].nsCosine()
	}
	num, den := 0.0, 0.0
	for i := range accs {
		w := k.weightOf(accs[i].ns)
		if w <= 0 {
			continue
		}
		w *= min(accs[i].massA, accs[i].massB)
		if w <= 0 {
			continue
		}
		num += w * accs[i].nsCosine()
		den += w
	}
	if den == 0 {
		return 0
	}
	sim := num / den
	if sim > 1 {
		return 1
	}
	if sim < 0 {
		return 0
	}
	return sim
}

// cosineIn is the namespace-scoped cosine of two compiled vectors: ns's
// bucket of the fused walk, finished alone. Only replicas belonging to ns
// contribute, with the plain kernel's accumulation order, zero handling and
// clamping, so when every replica of both vectors is already in ns it is
// bit-identical to ratioVec.cosine. No allocation up to four namespaces.
func cosineIn(a, b ratioVec, ns Namespace) float64 {
	var stack [4]nsAcc
	accs := fusedAccs(a, b, stack[:0])
	i := slices.IndexFunc(accs, func(acc nsAcc) bool { return acc.ns == ns })
	if i < 0 {
		return 0
	}
	return accs[i].nsCosine()
}
