package crp

import "testing"

func candidateMaps() map[NodeID]RatioMap {
	return map[NodeID]RatioMap{
		"near":    {"r1": 0.5, "r2": 0.5},
		"medium":  {"r1": 0.9, "r3": 0.1},
		"far":     {"r9": 1.0},
		"distant": {"r8": 1.0},
	}
}

func TestRankBySimilarityOrder(t *testing.T) {
	client := RatioMap{"r1": 0.5, "r2": 0.5}
	ranked := RankBySimilarity(client, candidateMaps())
	if len(ranked) != 4 {
		t.Fatalf("ranked %d candidates, want 4", len(ranked))
	}
	if ranked[0].Node != "near" || ranked[1].Node != "medium" {
		t.Errorf("order = %v", ranked)
	}
	// Zero-similarity nodes rank last, tie-broken by ID.
	if ranked[2].Node != "distant" || ranked[3].Node != "far" {
		t.Errorf("zero-sim tail = %v, want distant,far (alphabetical)", ranked[2:])
	}
	if ranked[0].Similarity < ranked[1].Similarity ||
		ranked[1].Similarity < ranked[2].Similarity {
		t.Errorf("similarities not descending: %v", ranked)
	}
}

func TestRankBySimilarityDeterministicTies(t *testing.T) {
	client := RatioMap{"r1": 1}
	cands := map[NodeID]RatioMap{
		"b": {"r1": 1},
		"a": {"r1": 1},
		"c": {"r1": 1},
	}
	for i := 0; i < 10; i++ {
		ranked := RankBySimilarity(client, cands)
		if ranked[0].Node != "a" || ranked[1].Node != "b" || ranked[2].Node != "c" {
			t.Fatalf("tie-break not deterministic: %v", ranked)
		}
	}
}

func TestSelectClosest(t *testing.T) {
	client := RatioMap{"r1": 0.5, "r2": 0.5}
	best, ok := SelectClosest(client, candidateMaps())
	if !ok || best.Node != "near" {
		t.Errorf("SelectClosest = %+v, %v", best, ok)
	}
}

func TestSelectClosestNoSignal(t *testing.T) {
	client := RatioMap{"rz": 1}
	best, ok := SelectClosest(client, candidateMaps())
	if ok {
		t.Errorf("SelectClosest reported ok with zero similarity everywhere: %+v", best)
	}
	// It still returns a deterministic candidate so callers can fall back.
	if best.Node == "" {
		t.Error("SelectClosest returned no candidate at all")
	}

	if _, ok := SelectClosest(client, nil); ok {
		t.Error("SelectClosest over no candidates reported ok")
	}
}

func TestSelectClosestEmptyClient(t *testing.T) {
	if _, ok := SelectClosest(RatioMap{}, candidateMaps()); ok {
		t.Error("empty client map should produce no selection signal")
	}
}
