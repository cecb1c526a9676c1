package main

import (
	"io"
	"time"
)

// countingDiscard is the live capture sink: it keeps the byte count and
// drops the bytes, so the benchmark measures the recorder and not buffer
// regrowth of its own making.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// liveWorkload is live-cluster: each episode builds, boots and wires the
// scenario (setup), steps one virtual second of warm-up, then times every
// Cluster.StepRound of the remaining three seconds on the process CPU clock.
// A call is one round.
// Successive episodes walk the input variants from the seed's, so a run
// covers most of them and runs with different seeds see the same mix.
type liveWorkload struct {
	variant  int
	refs     *references
	episodes int
}

func (w *liveWorkload) prepare(*runCtx) error { return nil }

func (w *liveWorkload) episode(rc *runCtx) (episode, error) {
	var ep episode
	v := (w.variant + w.episodes) % variants
	w.episodes++
	sinks := make([]*countingDiscard, numHosts)
	writers := make([]io.Writer, numHosts)
	for i := range sinks {
		sinks[i] = &countingDiscard{}
		writers[i] = sinks[i]
	}
	c0 := processCPU()
	lc, err := buildCluster(v, writers, rc.tr, rc.tel)
	if err != nil {
		return ep, err
	}
	ep.setup = processCPU() - c0

	c0 = processCPU()
	for r := 0; r < warmRounds; r++ {
		if err := lc.step(rc.tr); err != nil {
			return ep, err
		}
	}
	ep.warmup = processCPU() - c0

	before := lc.published()
	ep.calls = make([]time.Duration, 0, totalRounds-warmRounds)
	start, c0 := time.Now(), processCPU()
	for r := warmRounds; r < totalRounds; r++ {
		c := processCPU()
		if err := lc.step(rc.tr); err != nil {
			return ep, err
		}
		ep.calls = append(ep.calls, processCPU()-c)
	}
	ep.cpu = processCPU() - c0
	ep.wall = time.Since(start)
	ep.events = lc.published() - before
	ep.units = len(ep.calls)

	verdicts, full, err := lc.finish(func(i int) int64 { return sinks[i].n })
	if err != nil {
		return ep, err
	}
	ep.check = w.refs.checkCluster(v, verdicts, full)
	if rc.regen != nil {
		rc.regen.Cluster[itoa(v)] = clusterRef{Verdicts: digest(verdicts), Full: digest(full)}
		ep.check = nil
	}
	if rc.layers != nil {
		lc.collect(rc.layers)
		for _, s := range sinks {
			rc.layers.add("capture.tap.bytes", float64(s.n))
		}
	}
	return ep, nil
}

// step advances the cluster by one round and runs the benchmark's own
// between-round bookkeeping. Traced, the round is a span and the request ID
// of every span inside it.
func (lc *liveCluster) step(tr *tracer) error {
	if tr != nil {
		tr.setRequest(uint32(lc.round + 1))
		tr.begin(tr.id("cluster.round"))
		lc.cl.StepRound()
		tr.end()
	} else {
		lc.cl.StepRound()
	}
	return lc.between()
}
