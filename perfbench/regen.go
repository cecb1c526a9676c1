package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// regenerate recomputes the reference digest of every input variant and
// writes them to path (normally perfbench/reference.json). Run it only when
// a change is meant to alter what the simulator computes, and say so.
func regenerate(path string) error {
	refs := &references{Cluster: map[string]clusterRef{}, Campaign: map[string]string{}}
	rc := &runCtx{regen: refs}
	for v := 0; v < variants; v++ {
		live := &liveWorkload{variant: v, refs: refs}
		if _, err := live.episode(rc); err != nil {
			return err
		}
		camp := &campaignWorkload{variant: v, refs: refs}
		if _, err := camp.episode(rc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "variant %d: cluster %.12s campaign %.12s\n",
			v, refs.Cluster[itoa(v)].Full, refs.Campaign[itoa(v)])
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
