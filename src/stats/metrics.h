// External clustering-agreement metrics, used to score maps against planted
// ground truth and sampled clusterings against full-data clusterings
// (experiment C2: "the loss of accuracy is minimal").
#pragma once

#include <cstddef>
#include <vector>

namespace blaeu::stats {

/// Adjusted Rand Index between two labelings of the same points, in
/// [-1, 1]; 1 = identical partitions, ~0 = random agreement.
double AdjustedRandIndex(const std::vector<int>& a, const std::vector<int>& b);

}  // namespace blaeu::stats
