package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hypertap/internal/core"
)

// digest is the SHA-256 of a workload's simulated outputs, rendered as text
// in a fixed order; it is what the stored reference holds.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// sortedCounts renders a per-event-type count map in type order.
func sortedCounts(m map[core.EventType]uint64) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v=%d", core.EventType(k), m[core.EventType(k)])
	}
	return b.String()
}

// clusterRef is the stored outcome of one cluster-scenario variant: the
// digest of the verdicts a replay must reproduce, and of the full output.
type clusterRef struct {
	Verdicts string `json:"verdicts"`
	Full     string `json:"full"`
}

// references holds one digest per input variant and workload family. The
// simulator is deterministic, so a change that alters any digest changed
// what the program computes, not only how fast.
type references struct {
	Cluster  map[string]clusterRef `json:"cluster"`
	Campaign map[string]string     `json:"campaign"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// checkCluster compares a cluster-scenario outcome with variant v's
// reference. With full empty only the verdicts are compared (a replay has
// no guest statistics).
func (r *references) checkCluster(v int, verdicts, full string) error {
	ref, ok := r.Cluster[strconv.Itoa(v)]
	if !ok {
		return fmt.Errorf("no cluster reference for variant %d", v)
	}
	if got := digest(verdicts); got != ref.Verdicts {
		return fmt.Errorf("cluster variant %d: verdict digest %s, reference %s", v, got, ref.Verdicts)
	}
	if full != "" {
		if got := digest(full); got != ref.Full {
			return fmt.Errorf("cluster variant %d: output digest %s, reference %s", v, got, ref.Full)
		}
	}
	return nil
}

// checkCampaign compares a campaign outcome with variant v's reference.
func (r *references) checkCampaign(v int, out string) error {
	ref, ok := r.Campaign[strconv.Itoa(v)]
	if !ok {
		return fmt.Errorf("no campaign reference for variant %d", v)
	}
	if got := digest(out); got != ref {
		return fmt.Errorf("campaign variant %d: output digest %s, reference %s", v, got, ref)
	}
	return nil
}
