// Entropy and mutual information over discrete label sequences. MI is
// Blaeu's column-dependency measure: "it copes with mixed values and it is
// sensitive to non-linear relationships" (paper §3).
#pragma once

#include <cstdint>
#include <vector>

namespace blaeu::stats {

/// Shannon entropy (nats) of a label sequence.
double Entropy(const std::vector<int>& labels);

/// Joint entropy H(X, Y). The sequences must have equal length.
double JointEntropy(const std::vector<int>& xs, const std::vector<int>& ys);

/// Mutual information I(X;Y) = H(X) + H(Y) - H(X,Y), clamped at >= 0.
double MutualInformation(const std::vector<int>& xs,
                         const std::vector<int>& ys);

/// MI normalized to [0, 1] by sqrt(H(X) * H(Y)); 0 when either marginal
/// entropy is 0 (a constant column carries no dependency signal).
double NormalizedMutualInformation(const std::vector<int>& xs,
                                   const std::vector<int>& ys);

/// Bias-corrected mutual information (Miller-Madow): the plug-in MI of two
/// independent variables is positively biased by roughly
/// (Kx*Ky - Kx - Ky + 1) / (2n); this subtracts that term (clamped at 0).
/// Use for dependency estimation on sampled rows, where the bias would
/// otherwise drown weak structure.
double MutualInformationMM(const std::vector<int>& xs,
                           const std::vector<int>& ys);

/// Normalized Miller-Madow MI in [0, 1] (sqrt normalization with plug-in
/// marginal entropies).
double NormalizedMutualInformationMM(const std::vector<int>& xs,
                                     const std::vector<int>& ys);

}  // namespace blaeu::stats
