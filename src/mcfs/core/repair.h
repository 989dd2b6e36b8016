#ifndef MCFS_CORE_REPAIR_H_
#define MCFS_CORE_REPAIR_H_

#include <vector>

#include "mcfs/core/instance.h"

namespace mcfs {

// Algorithm 4 (SelectGreedy): extends `selected` up to k facilities.
// Each round finds the customer whose distance to the nearest selected
// facility is largest and adds the unselected candidate facility nearest
// to that customer. Unreachable customers count as infinitely far, so
// this also plugs uncovered network components when possible. The
// customer distances come from one nearest-selected-facility array,
// built once and lowered by AddMultiSource as each facility joins.
void SelectGreedy(const McfsInstance& instance, std::vector<int>& selected);

// Algorithm 5 (CoverComponents): revises `selected` (keeping its size)
// so that every connected component holds enough selected capacity for
// its customers, by swapping the lowest-capacity selected facility of
// the most over-provisioned component for the highest-capacity
// unselected facility of the most under-provisioned one. Falls back to
// a direct per-component reconstruction if the swap loop stalls.
// Returns false when no assignment of `selected.size()` facilities can
// cover all components (infeasible instance).
bool CoverComponents(const McfsInstance& instance,
                     std::vector<int>& selected);

}  // namespace mcfs

#endif  // MCFS_CORE_REPAIR_H_
