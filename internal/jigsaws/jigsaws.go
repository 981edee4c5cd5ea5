// Package jigsaws implements Jigsaw+S, the link-sharing relaxation of
// Jigsaw the paper mentions in Section 5.2.3 ("this relaxation can also be
// combined with LaaS or Jigsaw"): placements follow Jigsaw's exact
// conditions and whole-leaf restriction, but links are shared fractionally
// using the same per-job average-bandwidth classes and 80%-of-peak cap as
// LC+S. It trades the strict zero-interference guarantee for extra
// utilization while keeping Jigsaw's fast, fragmentation-resistant search —
// the middle point between Jigsaw and LC+S.
package jigsaws

import (
	"repro/internal/core"
	"repro/internal/lcs"
	"repro/internal/topology"
)

// NewAllocator returns a Jigsaw+S allocator for a pristine tree: core
// Jigsaw on links of LC+S's capacity, each job charging its LC+S bandwidth
// class.
func NewAllocator(tree *topology.FatTree) *core.Allocator {
	return core.NewLinkSharing(tree, "Jigsaw+S", lcs.LinkCapacity, lcs.DemandFor)
}
