package main

import (
	"fmt"
	"math"
	"slices"

	"repro/crp"
	"repro/internal/crpdaemon"
)

// tolerance is how far a served similarity or ratio may sit from the
// reference model's float64 value.
const tolerance = 1e-9

// checkResult counts requests checked against the reference model.
type checkResult struct {
	attempted, failed int
	firstErr          string
}

func (c *checkResult) failf(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

func (c *checkResult) add(o checkResult) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.firstErr == "" {
		c.firstErr = o.firstErr
	}
}

// asker sends one request to the daemon under test and returns its reply.
type asker func(*crpdaemon.Request) (crpdaemon.Response, error)

// checkSimilarity compares n served similarities with crp.CosineSimilarity
// over the model's ratio maps of the seeded world.
func (w *metroWorld) checkSimilarity(ask asker, seed int64, n int) (c checkResult) {
	rng := newRNG(seed, "check")
	for ; c.attempted < n; c.attempted++ {
		a, b := rng.Intn(len(w.nodes)), rng.Intn(len(w.nodes))
		resp, err := ask(&crpdaemon.Request{Op: "similarity", A: w.nodes[a], B: w.nodes[b]})
		if err != nil || resp.Similarity == nil {
			c.failf("similarity(%s,%s): %v", w.nodes[a], w.nodes[b], err)
			continue
		}
		if want := crp.CosineSimilarity(w.seededMap(a), w.seededMap(b)); math.Abs(*resp.Similarity-want) > tolerance {
			c.failf("similarity(%s,%s) = %v, model says %v", w.nodes[a], w.nodes[b], *resp.Similarity, want)
		}
	}
	return c
}

// checkScan compares n all-nodes top-k replies with a brute-force ranking of
// the seeded world. Many nodes of a metro hold identical maps, so the check
// is on similarities, which ties cannot reorder: every returned node scores
// what the model says it scores, and the k scores are the model's k best.
func (w *metroWorld) checkScan(ask asker, seed int64, n, k int) (c checkResult) {
	rng := newRNG(seed, "check")
	maps := make([]crp.RatioMap, len(w.nodes))
	for i := range maps {
		maps[i] = w.seededMap(i)
	}
	index := make(map[string]int, len(w.nodes))
	for i, name := range w.nodes {
		index[name] = i
	}
	sims := make([]float64, 0, len(w.nodes))
	for ; c.attempted < n; c.attempted++ {
		client := rng.Intn(len(w.nodes))
		resp, err := ask(&crpdaemon.Request{Op: "closest", Client: w.nodes[client], K: k})
		if err != nil || len(resp.Ranked) != k {
			c.failf("closest(%s): %d ranked, %v", w.nodes[client], len(resp.Ranked), err)
			continue
		}
		sims = sims[:0]
		for i := range maps {
			if i != client {
				sims = append(sims, crp.CosineSimilarity(maps[client], maps[i]))
			}
		}
		slices.Sort(sims)
		seen := map[string]bool{w.nodes[client]: true}
		for j, r := range resp.Ranked {
			i, known := index[r.Node]
			if !known || seen[r.Node] {
				c.failf("closest(%s)[%d] = %q: unknown, repeated or the client itself", w.nodes[client], j, r.Node)
				break
			}
			seen[r.Node] = true
			if want := crp.CosineSimilarity(maps[client], maps[i]); math.Abs(r.Similarity-want) > tolerance {
				c.failf("closest(%s)[%d] = %s at %v, model scores it %v", w.nodes[client], j, r.Node, r.Similarity, want)
				break
			}
			if best := sims[len(sims)-1-j]; math.Abs(r.Similarity-best) > tolerance {
				c.failf("closest(%s)[%d] scores %v, brute force finds %v", w.nodes[client], j, r.Similarity, best)
				break
			}
		}
	}
	return c
}

// checkMirror compares the served ratio map of every mirrored node with the
// model's map of the last probes the harness sent it.
func (w *metroWorld) checkMirror(ask asker) (c checkResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 0; i < len(w.nodes); i += mirrorEvery {
		c.attempted++
		resp, err := ask(&crpdaemon.Request{Op: "ratio_map", Node: w.nodes[i]})
		if err != nil {
			c.failf("ratio_map(%s): %v", w.nodes[i], err)
			continue
		}
		want := w.ratioMap(w.mirror[i])
		if len(resp.RatioMap) != len(want) {
			c.failf("ratio_map(%s) has %d replicas, mirror has %d", w.nodes[i], len(resp.RatioMap), len(want))
			continue
		}
		for r, f := range want {
			if got, ok := resp.RatioMap[string(r)]; !ok || math.Abs(got-f) > tolerance {
				c.failf("ratio_map(%s)[%s] = %v, mirror says %v", w.nodes[i], r, got, f)
				break
			}
		}
	}
	return c
}

// aggAgreement is the share of sampled non-divergent clients whose closest
// candidate must be the one their /24's profile points at. Aggregates blend
// a /24's divergent clients in, so agreement is high but not total.
const aggAgreement = 0.95

// checkClosest asks for n non-divergent clients' closest candidate.
func (w *aggWorld) checkClosest(ask asker, seed int64, n int) (c checkResult) {
	rng := newRNG(seed, "check")
	missed, firstMiss := 0, ""
	for c.attempted < n {
		i := rng.Intn(w.sz.aggClients)
		if w.divergent(i) {
			continue
		}
		c.attempted++
		resp, err := ask(&crpdaemon.Request{Op: "closest", Client: w.addr(i), Candidates: w.cands, K: 3})
		if err != nil || len(resp.Ranked) == 0 {
			c.failf("closest(%s): %d ranked, %v", w.addr(i), len(resp.Ranked), err)
			continue
		}
		if resp.Ranked[0].Node != w.expected(i) {
			missed++
			if firstMiss == "" {
				firstMiss = fmt.Sprintf("closest(%s) = %s, profile says %s", w.addr(i), resp.Ranked[0].Node, w.expected(i))
			}
		}
	}
	if float64(missed) > (1-aggAgreement)*float64(c.attempted) {
		c.failed += missed
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("%d of %d clients disagree with their profile, first: %s", missed, c.attempted, firstMiss)
		}
	}
	return c
}
