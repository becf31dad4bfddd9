package activity

// executor.go holds the shape of the run plan's dependency levels that
// Graph.Run walks.
//
// The paper frames an AV database as a locus of *concurrent* activities
// (§3.1, §4.4); concurrency across sessions is the engine's business
// (core.Engine's tick workers).  Inside one run, each scheduling interval
// executes level by level on the calling goroutine, in three phases:
//
//	A  deliver chunks across connections, account faults, emit chunk
//	   spans, stage every running node's tick inputs;
//	B  Tick the staged nodes in plan order and draw their latency
//	   samples;
//	C  surface the first error in topological order, stamp latency
//	   onto outputs, publish produced chunks.
//
// Everything order-sensitive — span IDs, metric updates, the transfer
// ordinals that key fault draws on links, stats accumulation — happens
// in this one order, which is what the experiment goldens pin.

// levelEnd returns where the dependency level that starts at nodes[lo]
// ends.  A level is a contiguous stretch of nodes of one depth (see
// planNodes): nodes within it share no path.
func levelEnd(nodes []planNode, lo int) int {
	hi := lo + 1
	for hi < len(nodes) && nodes[hi].depth == nodes[lo].depth {
		hi++
	}
	return hi
}

// levelShape reports how many dependency levels a plan has and how wide
// the widest one is (the exec.levels / exec.width gauges).
func levelShape(nodes []planNode) (levels, width int) {
	for lo, hi := 0, 0; lo < len(nodes); lo = hi {
		hi = levelEnd(nodes, lo)
		levels++
		width = max(width, hi-lo)
	}
	return levels, width
}
