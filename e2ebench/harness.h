/**
 * @file
 * Benchmark-side building blocks with no dependency on the server: the
 * seeded open-loop schedule, query samplers, percentile support, the
 * Prometheus-text reader, and the ground-truth check of one completion.
 *
 * Everything here is owned by the benchmark, not by the program under
 * test, so a change to the library's load generators, RNG or metric
 * plumbing cannot silently change the inputs the benchmark sends.
 */

#ifndef E2EBENCH_HARNESS_H
#define E2EBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/query_set.h"

namespace e2ebench {

/** splitmix64: a small, fully specified generator, so a seed gives the
 *  same stream on every host and standard library. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}

    uint64_t next();

    /** Uniform double in [0, 1) from the top 53 bits. */
    double uniform();

  private:
    uint64_t state_;
};

/**
 * Draws indices into the standard query set from a pool of them:
 * uniformly, or Zipf(skew)-popular with ranks assigned over a seeded
 * permutation of the pool (so no query class is the head by set order).
 */
class QuerySampler
{
  public:
    QuerySampler(std::vector<size_t> pool, double zipf_skew,
                 uint64_t permutation_seed);

    size_t draw(SplitMix &rng) const;

    /** Pool entries from most to least popular (pool order if uniform). */
    const std::vector<size_t> &ranked() const { return ranked_; }

  private:
    std::vector<size_t> ranked_;
    std::vector<double> cumulative_; ///< empty = uniform
};

/** One open-loop send: due time from phase start, and what to send. */
struct Arrival
{
    double due = 0.0;  ///< seconds after the phase starts
    size_t query = 0;  ///< index into core::standardQuerySet()
};

/**
 * @p count Poisson arrivals at @p qps (exponential gaps) with their
 * queries drawn from @p sampler. Gaps and draws use separate streams
 * derived from @p seed, so the same seed gives the same schedule.
 */
std::vector<Arrival> makeSchedule(const QuerySampler &sampler, double qps,
                                  size_t count, uint64_t seed);

/**
 * Seed of one stream of a run: distinct (seed, stream) pairs give
 * independent generators.
 */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

/** True when @p n samples leave at least ten beyond quantile @p q. */
bool percentileSupported(size_t n, double q);

/** Linear-interpolated quantile @p q in [0, 1] of @p values (sorted
 *  copy); 0 for an empty input. */
double quantile(std::vector<double> values, double q);

/** quantile() when percentileSupported(), otherwise nothing. */
std::optional<double> supportedQuantile(const std::vector<double> &values,
                                        double q);

/**
 * Split @p values (in arrival order) into @p blocks consecutive blocks of
 * equal count and return the lowest supported quantile @p q among them;
 * nothing when no block supports @p q. On a shared host, stolen CPU time
 * only ever adds latency and arrives in bursts of seconds, so the least
 * disturbed block measures the server rather than its neighbours.
 */
std::optional<double> bestBlockQuantile(const std::vector<double> &values,
                                        double q, size_t blocks);

/**
 * Parsed Prometheus text expositions, read by metric name and a subset
 * of labels. One reader can hold several servers' expositions; series
 * that match a query are summed over all of them. A name that is not
 * exposed reads as absent (std::nullopt), never as zero.
 */
class PromText
{
  public:
    using Labels = std::map<std::string, std::string>;

    PromText() = default;
    explicit PromText(const std::string &text) { add(text); }

    /** Add another server's exposition. */
    void add(const std::string &text);

    /** Sum of every series named @p name whose labels include
     *  @p match. */
    std::optional<double> sum(const std::string &name,
                              const Labels &match = {}) const;

    /** Per-series values of @p name (with @p match), keyed by the value
     *  of label @p by; series sharing that value are summed. */
    std::map<std::string, double> sumBy(const std::string &name,
                                        const std::string &by,
                                        const Labels &match = {}) const;

    /**
     * Quantile @p q of histogram family @p name (its `_bucket` series
     * with @p match, merged), interpolated linearly inside the bucket.
     * Absent when the family is not exposed or holds too few samples to
     * support @p q (see percentileSupported()).
     */
    std::optional<double> histogramQuantile(const std::string &name,
                                            double q,
                                            const Labels &match = {}) const;

    /** Series-wise difference this - @p before, exposition by
     *  exposition (counter deltas; a histogram's cumulative buckets stay
     *  cumulative). Both must hold the same servers in the same order.
     *  Series missing from @p before count as zero there, except
     *  histogram buckets, which read the largest `le` at or below
     *  theirs. */
    PromText minus(const PromText &before) const;

  private:
    struct Series
    {
        std::string name;
        Labels labels;
        double value = 0.0;
    };

    /** Cumulative count at @p le of the step function given by the
     *  `(le, count)` pairs of one histogram series. */
    static double cumulativeAt(const std::vector<std::pair<double, double>>
                                   &steps,
                               double le);

    /** One vector of series per exposition added. */
    std::vector<std::vector<Series>> docs_;
};

/** "" when @p result is the right answer to @p query, else why not. */
std::string checkResult(const sirius::core::Query &query,
                        const sirius::core::SiriusResult &result);

} // namespace e2ebench

#endif // E2EBENCH_HARNESS_H
