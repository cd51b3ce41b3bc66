/**
 * @file
 * Self-test of the benchmark's own building blocks: the percentile
 * support rule, seed determinism of the schedule and query draws, the
 * Zipf ranking over a permutation, the Prometheus-text reader, and the
 * ground-truth check. Exits non-zero on the first failure.
 *
 *   cmake --build .bench_build --target e2ebench_selftest
 *   .bench_build/e2ebench_selftest
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace e2ebench;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b, double eps = 1e-9)
{
    return std::fabs(a - b) <= eps;
}

void
testPercentileSupport()
{
    check(percentileSupported(1000, 0.99), "p99 supported at n=1000");
    check(!percentileSupported(999, 0.99), "p99 unsupported at n=999");
    check(percentileSupported(200, 0.95), "p95 supported at n=200");
    check(!percentileSupported(199, 0.95), "p95 unsupported at n=199");
    check(percentileSupported(20, 0.5), "p50 supported at n=20");
    check(!percentileSupported(19, 0.5), "p50 unsupported at n=19");

    std::vector<double> v;
    for (int i = 1; i <= 999; ++i)
        v.push_back(i);
    check(!supportedQuantile(v, 0.99), "999 samples give no p99");
    v.push_back(1000);
    const auto p99 = supportedQuantile(v, 0.99);
    check(p99 && near(*p99, 990.01), "p99 of 1..1000 interpolates");
    check(near(quantile({3, 1, 2}, 0.5), 2.0), "median of unsorted input");
    check(quantile({}, 0.5) == 0.0, "empty quantile is 0");

    // Best block: three blocks of 20, the middle one fastest.
    std::vector<double> blocks;
    for (int i = 0; i < 60; ++i)
        blocks.push_back(i >= 20 && i < 40 ? 1.0 : 5.0);
    const auto best = bestBlockQuantile(blocks, 0.5, 3);
    check(best && *best == 1.0, "best block is the fastest one");
    check(!bestBlockQuantile(blocks, 0.99, 3), "no block supports p99");
    // 59 samples: the fast first block holds 19, too few for a median.
    std::vector<double> short_first(19, 1.0);
    short_first.resize(59, 5.0);
    check(bestBlockQuantile(short_first, 0.5, 3) == 5.0,
          "an unsupported block is skipped");
}

void
testScheduleDeterminism()
{
    std::vector<size_t> pool;
    for (size_t i = 0; i < 42; ++i)
        pool.push_back(i);
    const QuerySampler a(pool, 1.0, 99);
    const QuerySampler b(pool, 1.0, 99);
    check(a.ranked() == b.ranked(), "same permutation seed, same ranking");
    check(QuerySampler(pool, 1.0, 100).ranked() != a.ranked(),
          "other permutation seed, other ranking");

    const auto s1 = makeSchedule(a, 100.0, 500, 7);
    const auto s2 = makeSchedule(b, 100.0, 500, 7);
    const auto s3 = makeSchedule(a, 100.0, 500, 8);
    bool same = s1.size() == s2.size();
    bool differ = false;
    for (size_t i = 0; same && i < s1.size(); ++i) {
        same = s1[i].due == s2[i].due && s1[i].query == s2[i].query;
        differ |= s1[i].due != s3[i].due || s1[i].query != s3[i].query;
    }
    check(same, "same seed, same schedule");
    check(differ, "other seed, other schedule");

    // Poisson at 100 qps: 500 arrivals take about 5 s.
    check(s1.back().due > 4.0 && s1.back().due < 6.0,
          "arrival rate near the requested qps");
    bool increasing = true;
    for (size_t i = 1; i < s1.size(); ++i)
        increasing &= s1[i].due > s1[i - 1].due;
    check(increasing, "due times increase");
}

void
testSamplers()
{
    // Uniform draws cover the pool evenly and never in a fixed order.
    const std::vector<size_t> pool{5, 6, 7, 8};
    const QuerySampler uniform(pool, 0.0, 1);
    SplitMix rng(3);
    std::map<size_t, int> seen;
    bool round_robin = true;
    size_t prev = uniform.draw(rng);
    for (int i = 0; i < 4000; ++i) {
        const size_t q = uniform.draw(rng);
        ++seen[q];
        round_robin &= q == pool[(std::find(pool.begin(), pool.end(), prev) -
                                  pool.begin() + 1) % pool.size()];
        prev = q;
    }
    check(seen.size() == 4 && seen.begin()->first == 5,
          "uniform draws stay in the pool");
    for (const auto &[q, n] : seen)
        check(n > 850 && n < 1150, "uniform draws are balanced");
    check(!round_robin, "uniform draws are not round robin");

    // Zipf(1): the head of the ranking is the most drawn, and the
    // ranking is a permutation of the pool, not the pool's order.
    std::vector<size_t> big;
    for (size_t i = 0; i < 42; ++i)
        big.push_back(i);
    const QuerySampler zipf(big, 1.0, 11);
    std::map<size_t, int> hits;
    for (int i = 0; i < 20000; ++i)
        ++hits[zipf.draw(rng)];
    const size_t head = zipf.ranked().front();
    for (const auto &[q, n] : hits)
        check(q == head || n <= hits[head], "rank 0 is the most popular");
    check(zipf.ranked() != big, "ranking is permuted");
    std::vector<size_t> sorted = zipf.ranked();
    std::sort(sorted.begin(), sorted.end());
    check(sorted == big, "ranking is a permutation of the pool");
}

void
testPromText()
{
    const std::string text =
        "# TYPE sirius_requests_accepted_total counter\n"
        "sirius_requests_accepted_total{server=\"leaf\"} 10\n"
        "# TYPE sirius_cache_lookups_total counter\n"
        "sirius_cache_lookups_total{cache=\"answers\",outcome=\"hit\"} 3\n"
        "sirius_cache_lookups_total{cache=\"answers\",outcome=\"miss\"} 1\n"
        "sirius_cache_lookups_total{cache=\"matches\",outcome=\"hit\"} 5\n"
        "# TYPE sirius_queue_wait_seconds histogram\n"
        "sirius_queue_wait_seconds_bucket{server=\"leaf\",le=\"0.001\"} 0\n"
        "sirius_queue_wait_seconds_bucket{server=\"leaf\",le=\"0.002\"} 50\n"
        "sirius_queue_wait_seconds_bucket{server=\"leaf\",le=\"0.004\"} 100\n"
        "sirius_queue_wait_seconds_bucket{server=\"leaf\",le=\"+Inf\"} 100\n"
        "sirius_queue_wait_seconds_sum{server=\"leaf\"} 0.2\n"
        "sirius_queue_wait_seconds_count{server=\"leaf\"} 100\n";
    const PromText p(text);

    check(!p.sum("sirius_no_such_metric"), "missing metric reads absent");
    check(!p.sum("sirius_cache_lookups_total", {{"cache", "acoustic"}}),
          "missing label value reads absent");
    check(!p.histogramQuantile("sirius_no_such_seconds", 0.5),
          "missing histogram reads absent");
    const auto accepted = p.sum("sirius_requests_accepted_total");
    check(accepted && *accepted == 10.0, "counter by name");
    const auto hits = p.sum("sirius_cache_lookups_total", {{"outcome", "hit"}});
    check(hits && *hits == 8.0, "label subset sums across series");
    const auto by = p.sumBy("sirius_cache_lookups_total", "outcome",
                            {{"cache", "answers"}});
    check(by.size() == 2 && by.at("hit") == 3.0 && by.at("miss") == 1.0,
          "sumBy groups by one label");

    const auto p50 = p.histogramQuantile("sirius_queue_wait_seconds", 0.5);
    check(p50 && near(*p50, 0.002), "histogram median at a bucket edge");
    const auto p75 = p.histogramQuantile("sirius_queue_wait_seconds", 0.75);
    check(p75 && near(*p75, 0.003), "histogram quantile interpolates");

    // Two servers' expositions back to back merge series-wise; a
    // delta against an earlier scrape whose trailing buckets were
    // elided keeps the histogram cumulative.
    PromText two(text);
    two.add(text);
    const auto twice = two.sum("sirius_requests_accepted_total");
    check(twice && *twice == 20.0, "concatenated expositions sum");
    const PromText earlier(
        "sirius_requests_accepted_total{server=\"leaf\"} 4\n"
        "sirius_queue_wait_seconds_bucket{server=\"leaf\",le=\"0.001\"} 0\n"
        "sirius_queue_wait_seconds_bucket{server=\"leaf\",le=\"0.002\"} 40\n"
        "sirius_queue_wait_seconds_bucket{server=\"leaf\",le=\"+Inf\"} 40\n");
    const PromText delta = p.minus(earlier);
    const auto d = delta.sum("sirius_requests_accepted_total");
    check(d && *d == 6.0, "counter delta");
    const auto dq = delta.histogramQuantile("sirius_queue_wait_seconds", 0.5);
    // Delta buckets: le .002 -> 10, le .004 -> 60; median 30 of 60
    // lies 20/50 of the way through (.002, .004].
    check(dq && near(*dq, 0.0028), "histogram delta with elided buckets");
    check(!delta.sum("sirius_no_such_metric"), "delta keeps absence");

    // Two shards export the same unlabeled-by-server histogram; one
    // elided the bucket the other filled. Merging must read the elided
    // bucket as that shard's total, not as zero.
    PromText shards(
        "h_bucket{le=\"0.001\"} 0\n"
        "h_bucket{le=\"0.002\"} 50\n"
        "h_bucket{le=\"+Inf\"} 50\n");
    shards.add(
        "h_bucket{le=\"0.001\"} 0\n"
        "h_bucket{le=\"0.002\"} 0\n"
        "h_bucket{le=\"0.004\"} 50\n"
        "h_bucket{le=\"+Inf\"} 50\n");
    const auto m50 = shards.histogramQuantile("h", 0.5);
    const auto m75 = shards.histogramQuantile("h", 0.75);
    check(m50 && near(*m50, 0.002), "merged shards, median");
    check(m75 && near(*m75, 0.003), "merged shards, elided bucket");
    const PromText still = shards.minus(shards);
    check(!still.histogramQuantile("h", 0.5), "no new samples, no quantile");
    check(!shards.histogramQuantile("h", 0.99),
          "100 samples do not support a histogram p99");
}

void
testCheckResult()
{
    using sirius::core::Degradation;
    using sirius::core::Query;
    using sirius::core::QueryClass;
    using sirius::core::QueryType;
    using sirius::core::SiriusResult;

    const Query vc{QueryType::VoiceCommand, "set an alarm for eight", -1, ""};
    SiriusResult r;
    r.queryClass = QueryClass::Action;
    r.action = "Set an alarm for eight";
    check(checkResult(vc, r).empty(), "VC action matches text");
    r.action = "set an alarm for nine";
    check(!checkResult(vc, r).empty(), "VC wrong action caught");

    const Query viq{QueryType::VoiceImageQuery, "when was this built", 3,
                    "1889"};
    SiriusResult v;
    v.queryClass = QueryClass::Question;
    v.answer = "It was built in 1889";
    v.matchedLandmark = 3;
    check(checkResult(viq, v).empty(), "VIQ right answer and landmark");
    v.matchedLandmark = 0;
    check(!checkResult(viq, v).empty(), "VIQ wrong landmark caught");
    v.matchedLandmark = 3;
    v.degradation = Degradation::ViqToVq;
    check(!checkResult(viq, v).empty(), "degraded result caught");
}

} // namespace

int
main()
{
    testPercentileSupport();
    testScheduleDeterminism();
    testSamplers();
    testPromText();
    testCheckResult();
    if (failures == 0)
        std::printf("e2ebench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
