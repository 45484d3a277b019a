/**
 * @file
 * Descriptive statistics used by the benchmark harnesses: mean, standard
 * deviation, geometric mean, 95% confidence interval (the paper reports
 * mean GFLOPS with 95% CIs per Georges et al.), and rank correlations
 * used by the Fig. 6 reproduction.
 */

#ifndef MOPT_COMMON_STATS_HH
#define MOPT_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace mopt {

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &xs);

/** Unbiased (n-1) sample standard deviation; 0 for n < 2. */
double stddev(const std::vector<double> &xs);

/** Geometric mean; requires strictly positive values. */
double geomean(const std::vector<double> &xs);

/** Minimum / maximum; sample must be non-empty. */
double minValue(const std::vector<double> &xs);
double maxValue(const std::vector<double> &xs);

/** Median (average of middle two for even n); sample must be non-empty. */
double median(std::vector<double> xs);

/**
 * Half-width of the 95% confidence interval of the mean, using the
 * normal approximation 1.96 * s / sqrt(n) (as in the paper's
 * statistically rigorous measurement methodology).
 */
double confidence95(const std::vector<double> &xs);

/** Pearson linear correlation coefficient; 0 if degenerate. */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Spearman rank correlation (Pearson of the rank vectors, mid-ranks for
 * ties); the Fig. 6 reproduction reports this between model-predicted
 * ordering and measured metrics.
 */
double spearman(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Ranks of @p xs (1-based, mid-rank for ties): result[i] is the rank of
 * xs[i] in ascending order.
 */
std::vector<double> ranks(const std::vector<double> &xs);

/**
 * Indices of the k smallest elements in ascending order of value
 * (k clamped to size).
 */
std::vector<std::size_t> smallestK(const std::vector<double> &xs,
                                   std::size_t k);

} // namespace mopt

#endif // MOPT_COMMON_STATS_HH
