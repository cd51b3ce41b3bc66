/**
 * @file
 * End-to-end benchmark of the live Sirius server.
 *
 *   e2e_bench --workload voice|viq|popular_cached --seed N --seconds S
 *             --trace 0|1 [--trace-out FILE]
 *
 * Drives a core::ConcurrentServer (or, for popular_cached, a
 * core::ClusterRouter) through its public submit()/handle() API with a
 * seeded open-loop Poisson schedule at a low and a high rate, in blocks
 * interleaved with a four-client closed loop. Every completion is
 * checked against the query's ground truth. Latency runs from each
 * request's scheduled send time to its completion callback.
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 repeats the low
 * phase with the benchmark's own spans, runs the high phase traced,
 * times isolated calls into each layer on the workload's queries, reads
 * the server's Prometheus exposition by metric name, and reports the
 * per-layer metrics. The last line of stdout is one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audio/delta.h"
#include "audio/mfcc.h"
#include "core/cluster.h"
#include "core/concurrent_server.h"
#include "core/pipeline.h"
#include "core/query_set.h"
#include "harness.h"
#include "vision/landmarks.h"

namespace {

using namespace e2ebench;
using sirius::core::Query;
using sirius::core::QueryType;
using sirius::core::SiriusResult;
using Clock = std::chrono::steady_clock;

constexpr size_t kWorkers = 4;      // the server's default deployment
constexpr size_t kClients = 4;      // closed-loop clients
constexpr size_t kBlocks = 6;       // best-block statistics per phase
constexpr size_t kQueueCapacity = 1 << 16; // never shed on a host stall

// Zipf popularity ranks are part of the workload, not of one run: every
// seed sees the same hot queries, so the working set and the shards'
// load split under affinity routing do not change from run to run.
constexpr uint64_t kPopularitySeed = 0x5eed0042;

double
secondsSince(Clock::time_point t0, Clock::time_point t)
{
    return std::chrono::duration<double>(t - t0).count();
}

double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** One workload: which queries, how popular, what rates, what target. */
struct Workload
{
    std::string name;
    std::vector<QueryType> types;
    double zipfSkew = 0.0;
    double lowQps = 0.0;
    double highQps = 0.0;
    bool cluster = false; ///< 2 shards x 2 workers, affinity, caches on
};

// The low and high rates sit near 20% and 40% of each workload's
// closed-loop capacity on a quiet 4-vCPU host, so the high phase stays
// below about 70% utilization even when a shared host runs 40% slower.
// At 70-80% (e.g. viq at 60-70 qps) the high-rate median moved by 2-20x
// between identical runs as the host's speed drifted.
std::optional<Workload>
workloadNamed(const std::string &name)
{
    using QT = QueryType;
    if (name == "voice")
        return Workload{name, {QT::VoiceCommand, QT::VoiceQuery}, 0.0,
                        70.0, 140.0, false};
    if (name == "viq")
        return Workload{name, {QT::VoiceImageQuery}, 0.0, 18.0, 36.0,
                        false};
    if (name == "popular_cached")
        return Workload{name,
                        {QT::VoiceCommand, QT::VoiceQuery,
                         QT::VoiceImageQuery},
                        1.0, 100.0, 200.0, true};
    return std::nullopt;
}

std::vector<size_t>
poolOf(const Workload &w)
{
    const auto &set = sirius::core::standardQuerySet();
    std::vector<size_t> pool;
    for (size_t i = 0; i < set.size(); ++i) {
        if (std::find(w.types.begin(), w.types.end(), set[i].type) !=
            w.types.end())
            pool.push_back(i);
    }
    return pool;
}

/** The server under test: a leaf server or a cluster router. */
class Target
{
  public:
    using Completion = sirius::core::ConcurrentServer::Completion;

    Target(const sirius::core::SiriusPipeline &pipeline, bool cluster)
    {
        sirius::core::ConcurrentServerConfig leaf;
        leaf.queueCapacity = kQueueCapacity;
        if (!cluster) {
            leaf.workers = kWorkers;
            leaf_ = std::make_unique<sirius::core::ConcurrentServer>(
                pipeline, leaf);
            return;
        }
        leaf.workers = kWorkers / 2;
        leaf.cache.enabled = true;
        leaf.cache.byteBudget = 256u << 10;
        sirius::core::ClusterConfig config;
        config.shards = 2;
        config.policy = sirius::core::RoutingPolicy::AffinityHash;
        config.shard = leaf;
        router_ =
            std::make_unique<sirius::core::ClusterRouter>(pipeline, config);
    }

    bool submit(const Query &q, Completion done)
    {
        return leaf_ ? leaf_->submit(q, std::move(done))
                     : router_->submit(q, std::move(done));
    }

    SiriusResult handle(const Query &q)
    {
        return leaf_ ? leaf_->handle(q) : router_->handle(q);
    }

    void drain() { leaf_ ? leaf_->drain() : router_->drain(); }

    /** Every server's own exposition, back to back. */
    PromText scrapeServers() const
    {
        if (leaf_)
            return PromText(leaf_->snapshot().metrics.renderPrometheus());
        PromText out;
        for (size_t i = 0; i < router_->shardCount(); ++i)
            out.add(router_->shard(i)
                        .server()
                        .snapshot()
                        .metrics.renderPrometheus());
        return out;
    }

    /** The router's exposition (empty for a leaf server). */
    PromText scrapeRouter() const
    {
        return router_ ? PromText(router_->snapshot()
                                      .metrics.renderPrometheus())
                       : PromText();
    }

  private:
    std::unique_ptr<sirius::core::ConcurrentServer> leaf_;
    std::unique_ptr<sirius::core::ClusterRouter> router_;
};

/** Outcome tallies shared by every phase. */
struct Tally
{
    std::atomic<uint64_t> wrong{0};
    std::mutex firstMutex;
    std::vector<std::string> firstWrong; ///< a few examples, for stderr

    void noteWrong(const std::string &why)
    {
        wrong.fetch_add(1);
        std::lock_guard<std::mutex> lock(firstMutex);
        if (firstWrong.size() < 5)
            firstWrong.push_back(why);
    }
};

/** One open-loop request, written by its completion callback. */
struct Request
{
    double due = 0.0;    ///< seconds from phase start
    double submit = 0.0;
    double done = -1.0;  ///< -1 until completed
    size_t query = 0;
    bool ok = false;
};

/** The span ring the traced run keeps in memory. */
struct SpanLog
{
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0;
        double start = 0.0; ///< seconds since the run's epoch
        double end = 0.0;
        std::string attrs;  ///< preformatted JSON members, may be empty
    };

    bool enabled = false;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
    uint64_t nextId = 1;

    double at(Clock::time_point t) const { return secondsSince(epoch, t); }

    uint64_t add(std::string name, uint64_t parent, double start,
                 double end, std::string attrs = {})
    {
        if (!enabled)
            return 0;
        spans.push_back({std::move(name), nextId, parent, start, end,
                         std::move(attrs)});
        return nextId++;
    }

    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const Span &s : spans) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "{\"id\":%llu,\"parent\":%llu,\"start\":%.9f,"
                          "\"end\":%.9f,\"name\":\"",
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent),
                          s.start, s.end);
            out << buf << s.name << '"';
            if (!s.attrs.empty())
                out << ',' << s.attrs;
            out << "}\n";
        }
        return static_cast<bool>(out);
    }
};

struct PhaseResult
{
    std::string name;
    std::vector<Request> requests;
    double cpuSeconds = 0.0;
    size_t completed = 0;
    size_t shed = 0;

    std::vector<double> latenciesMs(
        std::optional<QueryType> type = std::nullopt) const
    {
        const auto &set = sirius::core::standardQuerySet();
        std::vector<double> out;
        for (const Request &r : requests) {
            if (r.done < 0.0 || (type && set[r.query].type != *type))
                continue;
            out.push_back(1e3 * (r.done - r.due));
        }
        return out;
    }

    std::vector<double> latenessMs() const
    {
        std::vector<double> out;
        for (const Request &r : requests)
            out.push_back(1e3 * (r.submit - r.due));
        return out;
    }
};

/** Block @p b of @p blocks equal-count chunks of @p schedule, with due
 *  times rebased so the chunk keeps its first inter-arrival gap. */
std::vector<Arrival>
scheduleBlock(const std::vector<Arrival> &schedule, size_t b, size_t blocks)
{
    const size_t first = schedule.size() * b / blocks;
    const size_t last = schedule.size() * (b + 1) / blocks;
    const double base = first > 0 ? schedule[first - 1].due : 0.0;
    std::vector<Arrival> out(schedule.begin() + first,
                             schedule.begin() + last);
    for (Arrival &a : out)
        a.due -= base;
    return out;
}

/** Append @p block's requests and counts to @p phase. */
void
appendBlock(PhaseResult &phase, const PhaseResult &block)
{
    phase.requests.insert(phase.requests.end(), block.requests.begin(),
                          block.requests.end());
    phase.cpuSeconds += block.cpuSeconds;
    phase.completed += block.completed;
    phase.shed += block.shed;
}

/**
 * Send @p schedule open loop: each request is submitted at its due time
 * regardless of how many are outstanding, then the phase waits for
 * every accepted request to complete.
 */
PhaseResult
sendOpenLoop(const std::string &name, Target &target,
            const std::vector<Arrival> &schedule, Tally &tally,
            SpanLog &spans)
{
    const auto &set = sirius::core::standardQuerySet();
    PhaseResult phase;
    phase.name = name;
    phase.requests.resize(schedule.size());
    std::atomic<size_t> done_count{0};

    const double cpu0 = cpuSeconds();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    size_t accepted = 0;
    for (size_t i = 0; i < schedule.size(); ++i) {
        Request &r = phase.requests[i];
        r.due = schedule[i].due;
        r.query = schedule[i].query;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(r.due)));
        r.submit = secondsSince(start, Clock::now());
        const Query &q = set[r.query];
        const bool admitted =
            target.submit(q, [&r, &q, &tally, &done_count,
                              start](const SiriusResult &result) {
                r.done = secondsSince(start, Clock::now());
                const std::string why = checkResult(q, result);
                r.ok = why.empty();
                if (!r.ok)
                    tally.noteWrong(q.text + ": " + why);
                done_count.fetch_add(1, std::memory_order_release);
            });
        accepted += admitted ? 1 : 0;
    }
    while (done_count.load(std::memory_order_acquire) < accepted)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    target.drain();
    phase.cpuSeconds = cpuSeconds() - cpu0;
    phase.completed = accepted;
    phase.shed = schedule.size() - accepted;

    if (spans.enabled) {
        const double base = spans.at(start);
        for (const Request &r : phase.requests) {
            char attrs[128];
            std::snprintf(attrs, sizeof(attrs),
                          "\"phase\":\"%s\",\"type\":\"%s\","
                          "\"submit\":%.9f,\"ok\":%d",
                          name.c_str(),
                          sirius::core::queryTypeName(set[r.query].type),
                          base + r.submit, r.ok ? 1 : 0);
            spans.add("request", 0, base + r.due,
                      base + (r.done < 0.0 ? r.submit : r.done), attrs);
        }
    }
    return phase;
}

struct ClosedResult
{
    size_t completed = 0; ///< all completions, tail past the window too
    size_t inWindow = 0;  ///< completions inside the window
    size_t wrong = 0;
    double seconds = 0.0; ///< window length
    double qps() const { return seconds > 0.0 ? inWindow / seconds : 0.0; }
};

/** kClients clients, each sending its next query when the last one
 *  returns, for a window of @p seconds; queries in flight when it closes
 *  complete but do not count towards qps(). */
ClosedResult
sendClosedLoop(Target &target, const QuerySampler &sampler, uint64_t seed,
               double seconds, Tally &tally)
{
    const auto &set = sirius::core::standardQuerySet();
    std::vector<size_t> done(kClients, 0);
    std::vector<size_t> in_window(kClients, 0);
    std::vector<size_t> wrong(kClients, 0);
    const auto stop = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            SplitMix rng(streamSeed(seed, 100 + c));
            while (Clock::now() < stop) {
                const Query &q = set[sampler.draw(rng)];
                const std::string why = checkResult(q, target.handle(q));
                if (!why.empty()) {
                    tally.noteWrong(q.text + ": " + why);
                    ++wrong[c];
                }
                ++done[c];
                in_window[c] += Clock::now() < stop ? 1 : 0;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    ClosedResult out;
    out.seconds = seconds;
    for (size_t c = 0; c < kClients; ++c) {
        out.completed += done[c];
        out.inWindow += in_window[c];
        out.wrong += wrong[c];
    }
    return out;
}

/** A metric for the final JSON line; absent ones print as 0 there. */
struct Metric
{
    std::string name;
    std::optional<double> value;
    std::string unit;
};

void
printMetric(const Metric &m, const std::string &support = {})
{
    if (m.value)
        std::printf("metric %-36s %14.6f %-5s%s\n", m.name.c_str(), *m.value,
                    m.unit.c_str(), support.c_str());
    else
        std::printf("metric %-36s %14s %-5s%s\n", m.name.c_str(), "absent",
                    m.unit.c_str(), support.c_str());
}

std::string
jsonLine(bool correct, uint64_t attempted, uint64_t failed,
         const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      metrics[i].value.value_or(0.0));
        out += (i ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
    }
    return out + "}}";
}

/** Per-query median over repetitions, averaged over queries. */
class ProbeStat
{
  public:
    void add(size_t query, double value) { samples_[query].push_back(value); }

    std::optional<double> value() const
    {
        if (samples_.empty())
            return std::nullopt;
        double sum = 0.0;
        for (const auto &[q, v] : samples_)
            sum += quantile(v, 0.5);
        return sum / static_cast<double>(samples_.size());
    }

  private:
    std::map<size_t, std::vector<double>> samples_;
};

/**
 * Isolated calls into each layer's public functions on the workload's
 * distinct queries, repeated until @p seconds have passed (at least
 * once). Each call is one span under the probe's root span.
 */
std::map<std::string, ProbeStat>
probeLayers(const sirius::core::SiriusPipeline &pipeline,
            const std::vector<size_t> &pool, double seconds, Tally &tally,
            SpanLog &spans)
{
    using namespace std::chrono;
    const auto &set = sirius::core::standardQuerySet();
    const auto &asr = pipeline.asr();
    std::map<std::string, ProbeStat> stats;

    // Untimed per-query inputs: the VIQ question after landmark
    // substitution comes from one full pipeline run.
    std::map<size_t, std::string> viq_question;
    for (const size_t qi : pool) {
        if (set[qi].type == QueryType::VoiceImageQuery)
            viq_question[qi] = pipeline.process(set[qi]).augmentedQuestion;
    }
    std::map<int, std::unique_ptr<sirius::audio::MfccExtractor>> mfcc;

    const auto stop = Clock::now() + duration_cast<Clock::duration>(
                                         duration<double>(seconds));
    size_t reps = 0;
    do {
        for (const size_t qi : pool) {
            const Query &q = set[qi];
            const uint64_t root =
                spans.add("probe", 0, spans.at(Clock::now()), 0.0);
            const auto timed = [&](const char *name, auto &&fn) {
                const auto t0 = Clock::now();
                fn();
                const auto t1 = Clock::now();
                spans.add(name, root, spans.at(t0), spans.at(t1));
                return 1e3 * secondsSince(t0, t1);
            };

            sirius::audio::Waveform wave;
            stats["audio.synthesize_ms"].add(
                qi, timed("audio.synthesize",
                          [&] { wave = asr.synthesize(q.text); }));

            sirius::speech::AsrResult heard;
            stats["speech.transcribe_ms"].add(
                qi, timed("speech.transcribe",
                          [&] { heard = asr.transcribe(wave); }));
            stats["speech.transcribe_ms.fe"].add(
                qi, 1e3 * heard.timings.featureExtraction);
            stats["speech.transcribe_ms.score"].add(
                qi, 1e3 * heard.timings.scoring);
            stats["speech.transcribe_ms.search"].add(
                qi, 1e3 * heard.timings.search);

            auto &extractor = mfcc[wave.sampleRate];
            if (!extractor)
                extractor = std::make_unique<sirius::audio::MfccExtractor>(
                    asr.config().mfcc, wave.sampleRate);
            auto frames = extractor->extract(wave);
            if (asr.config().useDeltaFeatures)
                frames = sirius::audio::appendDeltas(frames);
            if (!frames.empty()) {
                const auto &scorer = asr.scorer();
                std::vector<std::vector<float>> serial;
                const double serial_ms =
                    timed("speech.score.serial", [&] {
                        for (const auto &f : frames)
                            serial.push_back(scorer.scoreAll(f));
                    });
                std::vector<const sirius::audio::FeatureVector *> ptrs;
                for (const auto &f : frames)
                    ptrs.push_back(&f);
                std::vector<std::vector<float>> batch;
                const double batch_ms = timed("speech.score.batch", [&] {
                    batch = scorer.scoreBatch(ptrs);
                });
                if (batch != serial)
                    tally.noteWrong(q.text + ": scoreBatch != scoreAll");
                const double n = static_cast<double>(frames.size());
                stats["speech.score_us_per_frame.serial"].add(
                    qi, 1e3 * serial_ms / n);
                stats["speech.score_us_per_frame.batch"].add(
                    qi, 1e3 * batch_ms / n);
            }

            std::string question = heard.text;
            if (q.type == QueryType::VoiceImageQuery) {
                question = viq_question[qi];
                sirius::vision::Image image;
                stats["vision.query_view_ms"].add(
                    qi, timed("vision.query_view", [&] {
                        image = sirius::vision::generateQueryView(
                            q.landmarkId);
                    }));
                sirius::vision::ImmResult seen;
                stats["vision.match_ms"].add(
                    qi, timed("vision.match",
                              [&] { seen = pipeline.imm().match(image); }));
                stats["vision.match_ms.fe"].add(
                    qi, 1e3 * seen.timings.featureExtraction);
                stats["vision.match_ms.fd"].add(
                    qi, 1e3 * seen.timings.featureDescription);
                stats["vision.match_ms.ann"].add(
                    qi, 1e3 * seen.timings.matching);
                if (seen.bestId != q.landmarkId)
                    tally.noteWrong(q.text + ": probe matched landmark " +
                                    std::to_string(seen.bestId));
            }

            if (q.type != QueryType::VoiceCommand) {
                sirius::qa::QaResult answer;
                stats["qa.answer_ms"].add(
                    qi, timed("qa.answer", [&] {
                        answer = pipeline.qa().answer(question);
                    }));
                const auto &t = answer.timings;
                stats["qa.answer_ms.stemmer"].add(qi, 1e3 * t.stemmer);
                stats["qa.answer_ms.regex"].add(qi, 1e3 * t.regex);
                stats["qa.answer_ms.crf"].add(qi, 1e3 * t.crf);
                stats["qa.answer_ms.search"].add(qi, 1e3 * t.search);
                stats["qa.answer_ms.select"].add(qi, 1e3 * t.select);
                sirius::core::SiriusResult as_served;
                as_served.queryClass = sirius::core::QueryClass::Question;
                as_served.answer = answer.answer;
                as_served.matchedLandmark = q.landmarkId;
                const std::string why = checkResult(q, as_served);
                if (!why.empty())
                    tally.noteWrong(q.text + ": probe " + why);
            }
            if (spans.enabled)
                spans.spans[root - 1].end = spans.at(Clock::now());
        }
        ++reps;
    } while (Clock::now() < stop);
    std::printf("probe: %zu queries x %zu repetitions\n", pool.size(), reps);
    return stats;
}

/** Read the exposition metrics each layer reports (absent stays absent). */
void
readRegistry(const PromText &low, const PromText &high,
             const PromText &open, const PromText &after,
             const PromText &router_open, std::vector<Metric> &out)
{
    const auto ms = [](std::optional<double> s) {
        return s ? std::optional<double>(1e3 * *s) : std::nullopt;
    };
    out.push_back({"core.queue_wait_ms.p50",
                   ms(high.histogramQuantile("sirius_queue_wait_seconds",
                                             0.5)),
                   "ms"});
    out.push_back({"core.queue_wait_ms.p99",
                   ms(high.histogramQuantile("sirius_queue_wait_seconds",
                                             0.99)),
                   "ms"});

    for (const char *kernel : {"score", "match"}) {
        const PromText::Labels k{{"kernel", kernel}};
        const auto items = low.sum("sirius_batch_items_total", k);
        const auto flushes = low.sum("sirius_batch_flushes_total", k);
        std::optional<double> occupancy;
        if (items && flushes)
            occupancy = *flushes > 0.0 ? *items / *flushes : 0.0;
        const auto wsum = low.sum("sirius_batch_wait_seconds_sum", k);
        const auto wcount = low.sum("sirius_batch_wait_seconds_count", k);
        std::optional<double> wait;
        if (wsum && wcount)
            wait = *wcount > 0.0 ? 1e6 * *wsum / *wcount : 0.0;
        out.push_back({std::string("core.batch.") + kernel + ".occupancy",
                       occupancy, "count"});
        out.push_back({std::string("core.batch.") + kernel + ".wait_us",
                       wait, "us"});
    }

    for (const char *cache : {"acoustic_scores", "answers", "matches"}) {
        const auto by = open.sumBy("sirius_cache_lookups_total", "outcome",
                                   {{"cache", cache}});
        std::optional<double> ratio;
        if (!by.empty()) {
            const double hit = by.count("hit") ? by.at("hit") : 0.0;
            double looked = 0.0;
            for (const char *o : {"hit", "miss", "expired"})
                looked += by.count(o) ? by.at(o) : 0.0;
            ratio = looked > 0.0 ? hit / looked : 0.0;
        }
        out.push_back({std::string("core.cache.") + cache + ".hit_ratio",
                       ratio, "frac"});
    }
    out.push_back({"core.cache.evictions",
                   open.sum("sirius_cache_evictions_total"), "count"});
    out.push_back({"core.cache.bytes", after.sum("sirius_cache_bytes"),
                   "bytes"});

    const auto routed = router_open.sumBy("sirius_cluster_routed_total",
                                          "shard");
    std::optional<double> share;
    if (!routed.empty()) {
        double total = 0.0;
        double most = 0.0;
        for (const auto &[shard, n] : routed) {
            total += n;
            most = std::max(most, n);
        }
        share = total > 0.0 ? most / total : 0.0;
    }
    out.push_back({"core.cluster.routed_share.max", share, "frac"});
    out.push_back({"core.cluster.failovers",
                   router_open.sum("sirius_cluster_failovers_total"),
                   "count"});
}

std::string
activeIsa(const PromText &metrics)
{
    for (const auto &[isa, v] : metrics.sumBy("sirius_simd_dispatch", "isa"))
        if (v > 0.0)
            return isa;
    return "unknown";
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 30.0;
    int trace = 0;
    std::string traceOut;
};

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--trace") {
            a.trace = std::atoi(value.c_str());
        } else if (key == "--trace-out") {
            a.traceOut = value;
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || !have_workload || a.seconds <= 0.0 ||
        (a.trace != 0 && a.trace != 1))
        return std::nullopt;
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = parseArgs(argc, argv);
    const auto workload = args ? workloadNamed(args->workload) : std::nullopt;
    if (!workload) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload voice|viq|popular_cached "
                     "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    const Args &a = *args;
    const Workload &w = *workload;
    const bool traced = a.trace == 1;
    const std::vector<size_t> pool = poolOf(w);
    const QuerySampler sampler(pool, w.zipfSkew, kPopularitySeed);

    // Phase plan, as shares of --seconds. Open-loop phases send a fixed
    // request count (rate x share), so each phase's sample count, and
    // hence which percentiles it supports, is known before it runs.
    const double S = a.seconds;
    const double warm_s = 0.05 * S;
    const auto count = [](double qps, double seconds) {
        return static_cast<size_t>(qps * seconds + 0.5);
    };
    const size_t n_low = count(w.lowQps, (traced ? 0.15 : 0.25) * S);
    const size_t n_high = count(w.highQps, (traced ? 0.4 : 0.5) * S);
    const double closed_s = (traced ? 0.1 : 0.2) * S;
    const double probe_s = 0.15 * S;
    const auto low_schedule =
        makeSchedule(sampler, w.lowQps, n_low, streamSeed(a.seed, 1));
    const auto high_schedule =
        makeSchedule(sampler, w.highQps, n_high, streamSeed(a.seed, 2));

    // Set-up: build the pipeline and start the server, five times for a
    // steady median (only with --trace 0, where setup_s is reported).
    std::vector<double> setups;
    std::unique_ptr<sirius::core::SiriusPipeline> pipeline;
    std::unique_ptr<Target> target;
    for (int i = 0; i < (traced ? 1 : 5); ++i) {
        target.reset();
        pipeline.reset();
        const auto t0 = Clock::now();
        pipeline = std::make_unique<sirius::core::SiriusPipeline>(
            sirius::core::SiriusPipeline::build());
        target = std::make_unique<Target>(*pipeline, w.cluster);
        setups.push_back(secondsSince(t0, Clock::now()));
    }

    const PromText boot = target->scrapeServers();
    std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d "
                "isa=%s nproc=%u workers=%zu shards=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed), S,
                a.trace, activeIsa(boot).c_str(),
                std::thread::hardware_concurrency(), kWorkers,
                w.cluster ? 2 : 1);

    Tally tally;
    SpanLog spans;
    // Warm-up: fills the caches and faults in lazily built state; not
    // measured.
    sendClosedLoop(*target, sampler, streamSeed(a.seed, 3), warm_s, tally);

    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    const auto account = [&](const PhaseResult &p) {
        attempted += p.requests.size();
        failed += p.shed;
        for (const Request &r : p.requests)
            failed += (r.done >= 0.0 && !r.ok) ? 1 : 0;
        const auto lat = p.latenciesMs();
        std::printf("phase %-10s sent=%zu completed=%zu shed=%zu "
                    "p50_ms=%.3f late_p99_ms=%.3f\n",
                    p.name.c_str(), p.requests.size(), p.completed, p.shed,
                    quantile(lat, 0.5), quantile(p.latenessMs(), 0.99));
    };
    const auto latencyMetric = [](const std::string &name,
                                  const std::vector<double> &lat, double q) {
        const Metric m{name, supportedQuantile(lat, q), "ms"};
        printMetric(m, " n=" + std::to_string(lat.size()) +
                           (m.value ? "" : " (unsupported: too few samples)"));
        return m;
    };
    const std::string bestOf =
        " best of " + std::to_string(kBlocks) + " blocks";
    const auto blockMetric = [&](const std::string &name,
                                 const std::vector<double> &lat, double q) {
        const Metric m{name, bestBlockQuantile(lat, q, kBlocks), "ms"};
        printMetric(m, " n=" + std::to_string(lat.size()) + bestOf);
        return m;
    };
    const auto typeP50s = [&](const PhaseResult &low) {
        std::vector<Metric> out;
        for (const auto &[type, name] :
             {std::pair{QueryType::VoiceCommand, "p50_ms.vc"},
              std::pair{QueryType::VoiceQuery, "p50_ms.vq"},
              std::pair{QueryType::VoiceImageQuery, "p50_ms.viq"}}) {
            const auto lat = low.latenciesMs(type);
            out.push_back(lat.empty() ? Metric{name, std::nullopt, "ms"}
                                      : latencyMetric(name, lat, 0.5));
            if (lat.empty())
                printMetric(out.back(), " n=0");
        }
        return out;
    };

    if (!traced) {
        // kBlocks rounds of (low-rate block, high-rate block, closed-loop
        // window), so each phase samples the whole run instead of one
        // stretch of it, and the best-block figures below can pick the
        // stretch a shared host disturbed least.
        PhaseResult low;
        low.name = "low";
        PhaseResult high;
        high.name = "high";
        double closed_qps = 0.0;
        ClosedResult closed;
        for (size_t b = 0; b < kBlocks; ++b) {
            appendBlock(low, sendOpenLoop("low", *target,
                                          scheduleBlock(low_schedule, b,
                                                        kBlocks),
                                          tally, spans));
            appendBlock(high, sendOpenLoop("high", *target,
                                           scheduleBlock(high_schedule, b,
                                                         kBlocks),
                                           tally, spans));
            const ClosedResult window =
                sendClosedLoop(*target, sampler, streamSeed(a.seed, 10 + b),
                               closed_s / kBlocks, tally);
            closed_qps = std::max(closed_qps, window.qps());
            closed.completed += window.completed;
            closed.inWindow += window.inWindow;
            closed.wrong += window.wrong;
            closed.seconds += window.seconds;
        }
        account(low);
        account(high);
        attempted += closed.completed;
        failed += closed.wrong;
        std::printf("phase %-10s clients=%zu completed=%zu qps=%.3f\n",
                    "closed", kClients, closed.completed, closed.qps());

        const double open_cpu = low.cpuSeconds + high.cpuSeconds;
        const size_t open_done = low.completed + high.completed;
        metrics.push_back({"setup_s", quantile(setups, 0.5), "s"});
        printMetric(metrics.back(),
                    " n=" + std::to_string(setups.size()) + " (median)");
        metrics.push_back({"cpu_ms_per_query",
                           open_done ? 1e3 * open_cpu / open_done : 0.0,
                           "ms"});
        printMetric(metrics.back(), " n=" + std::to_string(open_done));
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        printMetric(metrics.back());
        // Wall-clock figures are shown for the reader but kept out of the
        // JSON: even as the best of 6 blocks they moved by more than the
        // largest allowed bound (25%) between identical runs while the
        // shared host's CPU steal came and went. The traced run records
        // them.
        printMetric({"closed_qps", closed_qps, "1/s"},
                    " n=" + std::to_string(closed.completed) + bestOf);
        blockMetric("p50_ms.low", low.latenciesMs(), 0.5);
        blockMetric("p50_ms.high", high.latenciesMs(), 0.5);
        blockMetric("p90_ms.high", high.latenciesMs(), 0.9);
        // Shown for the reader, not in the JSON: whole-phase figures,
        // absent by construction on some workloads (too few samples, or
        // no queries of a type), and too sensitive to host stalls to
        // bound a regression.
        latencyMetric("p50_ms.low", low.latenciesMs(), 0.5);
        latencyMetric("p95_ms.low", low.latenciesMs(), 0.95);
        latencyMetric("p99_ms.low", low.latenciesMs(), 0.99);
        latencyMetric("p50_ms.high", high.latenciesMs(), 0.5);
        latencyMetric("p99_ms.high", high.latenciesMs(), 0.99);
        typeP50s(low);
    } else {
        spans.enabled = false;
        const PhaseResult plain =
            sendOpenLoop("low", *target, low_schedule, tally, spans);
        spans.enabled = true;
        const PromText s0 = target->scrapeServers();
        const PromText r0 = target->scrapeRouter();
        const PhaseResult low =
            sendOpenLoop("low.traced", *target, low_schedule, tally, spans);
        const PromText s1 = target->scrapeServers();
        const PhaseResult high =
            sendOpenLoop("high", *target, high_schedule, tally, spans);
        const PromText s2 = target->scrapeServers();
        const PromText r2 = target->scrapeRouter();
        account(plain);
        account(low);
        account(high);
        double closed_qps = 0.0;
        for (size_t b = 0; b < kBlocks; ++b) {
            const ClosedResult window =
                sendClosedLoop(*target, sampler, streamSeed(a.seed, 10 + b),
                               closed_s / kBlocks, tally);
            closed_qps = std::max(closed_qps, window.qps());
            attempted += window.completed;
            failed += window.wrong;
        }
        metrics.push_back({"closed_qps", closed_qps, "1/s"});

        auto stats = probeLayers(*pipeline, pool, probe_s, tally, spans);
        for (const char *name :
             {"audio.synthesize_ms", "vision.query_view_ms",
              "speech.transcribe_ms", "speech.transcribe_ms.fe",
              "speech.transcribe_ms.score", "speech.transcribe_ms.search",
              "speech.score_us_per_frame.serial",
              "speech.score_us_per_frame.batch", "qa.answer_ms",
              "qa.answer_ms.stemmer", "qa.answer_ms.regex",
              "qa.answer_ms.crf", "qa.answer_ms.search",
              "qa.answer_ms.select", "vision.match_ms",
              "vision.match_ms.fe", "vision.match_ms.fd",
              "vision.match_ms.ann"}) {
            const std::string n = name;
            metrics.push_back({n, stats[n].value(),
                               n.find("_us") != std::string::npos ? "us"
                                                                  : "ms"});
        }
        readRegistry(s1.minus(s0), s2.minus(s1), s2.minus(s0), s2,
                     r2.minus(r0), metrics);

        std::vector<double> late = low.latenessMs();
        const auto high_late = high.latenessMs();
        late.insert(late.end(), high_late.begin(), high_late.end());
        metrics.push_back({"bench.gen_late_ms.p99", quantile(late, 0.99),
                           "ms"});
        const double p50_plain = quantile(plain.latenciesMs(), 0.5);
        const double p50_traced = quantile(low.latenciesMs(), 0.5);
        metrics.push_back({"bench.trace_overhead_frac",
                           p50_plain > 0.0
                               ? (p50_traced - p50_plain) / p50_plain
                               : 0.0,
                           "frac"});
        for (const Metric &m : metrics)
            printMetric(m);
        metrics.push_back(latencyMetric("p50_ms.low", low.latenciesMs(), 0.5));
        metrics.push_back(
            latencyMetric("p50_ms.high", high.latenciesMs(), 0.5));
        metrics.push_back(
            latencyMetric("p90_ms.high", high.latenciesMs(), 0.9));
        metrics.push_back(
            latencyMetric("p99_ms.high", high.latenciesMs(), 0.99));
        for (const Metric &m : typeP50s(low))
            metrics.push_back(m);
        if (!a.traceOut.empty()) {
            if (spans.write(a.traceOut))
                std::printf("trace: %zu spans -> %s\n", spans.spans.size(),
                            a.traceOut.c_str());
            else
                std::fprintf(stderr, "cannot write %s\n",
                             a.traceOut.c_str());
        }
    }

    const uint64_t wrong = tally.wrong.load();
    const double error_frac =
        attempted ? static_cast<double>(failed) / attempted : 0.0;
    std::printf("metric %-36s %14.6f %-5s n=%llu (shed, failed, degraded "
                "or wrong; wrong=%llu)\n",
                "error_frac", error_frac, "frac",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(wrong));
    {
        std::lock_guard<std::mutex> lock(tally.firstMutex);
        for (const std::string &why : tally.firstWrong)
            std::fprintf(stderr, "wrong: %s\n", why.c_str());
    }
    std::printf("%s\n", jsonLine(wrong == 0, attempted, failed, metrics)
                            .c_str());
    std::fflush(stdout);
    return wrong == 0 ? 0 : 1;
}
