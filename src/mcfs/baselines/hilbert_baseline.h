#ifndef MCFS_BASELINES_HILBERT_BASELINE_H_
#define MCFS_BASELINES_HILBERT_BASELINE_H_

#include "mcfs/core/instance.h"

namespace mcfs {

// The paper's Hilbert baseline (Sec. VII-A): per connected component,
// customers are sorted along a Hilbert space-filling curve and split
// into consecutive buckets of ceil(m_g / k_g) customers (k_g facilities
// allotted proportionally to the component's customer count); each
// bucket selects the unused candidate facility nearest (Euclidean) to
// its centroid. Capacity feasibility is then repaired per component
// (CoverComponents) and customers are assigned to the selected
// facilities by one optimal bipartite matching.
//
// Requires graph coordinates.
McfsSolution RunHilbertBaseline(const McfsInstance& instance);

}  // namespace mcfs

#endif  // MCFS_BASELINES_HILBERT_BASELINE_H_
