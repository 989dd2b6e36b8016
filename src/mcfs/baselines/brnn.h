#ifndef MCFS_BASELINES_BRNN_H_
#define MCFS_BASELINES_BRNN_H_

#include "mcfs/core/instance.h"

namespace mcfs {

// The BRNN (bichromatic reverse nearest neighbor) baseline of Sec. III-A
// / VII-A: the first facility minimizes the aggregate network distance
// to all customers; each subsequent round places the candidate facility
// whose Nearest Location Region overlap attracts the most customers
// (MaxSum), computed with per-customer bounded Dijkstras (a customer's
// NLR is the set of nodes strictly closer than its current nearest
// selected facility). After k rounds, capacity feasibility is repaired
// and customers are matched optimally (the "runs SIA" final step).
McfsSolution RunBrnnBaseline(const McfsInstance& instance);

}  // namespace mcfs

#endif  // MCFS_BASELINES_BRNN_H_
