#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace e2ebench {

using sirius::core::Query;
using sirius::core::QueryType;
using sirius::core::SiriusResult;

uint64_t
SplitMix::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    SplitMix mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
    return mix.next();
}

QuerySampler::QuerySampler(std::vector<size_t> pool, double zipf_skew,
                           uint64_t permutation_seed)
    : ranked_(std::move(pool))
{
    if (zipf_skew <= 0.0)
        return;
    // Fisher-Yates over the pool, so popularity rank is independent of
    // the set's VC/VQ/VIQ order.
    SplitMix rng(permutation_seed);
    for (size_t i = ranked_.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng.next() % i);
        std::swap(ranked_[i - 1], ranked_[j]);
    }
    double total = 0.0;
    for (size_t rank = 0; rank < ranked_.size(); ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), zipf_skew);
        cumulative_.push_back(total);
    }
}

size_t
QuerySampler::draw(SplitMix &rng) const
{
    const double u = rng.uniform();
    if (cumulative_.empty()) {
        const auto i = static_cast<size_t>(u * ranked_.size());
        return ranked_[std::min(i, ranked_.size() - 1)];
    }
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(),
                                     u * cumulative_.back());
    const auto i = static_cast<size_t>(it - cumulative_.begin());
    return ranked_[std::min(i, ranked_.size() - 1)];
}

std::vector<Arrival>
makeSchedule(const QuerySampler &sampler, double qps, size_t count,
             uint64_t seed)
{
    SplitMix gaps(streamSeed(seed, 1));
    SplitMix draws(streamSeed(seed, 2));
    std::vector<Arrival> out;
    out.reserve(count);
    double t = 0.0;
    for (size_t i = 0; i < count; ++i) {
        t += -std::log1p(-gaps.uniform()) / qps;
        out.push_back({t, sampler.draw(draws)});
    }
    return out;
}

bool
percentileSupported(size_t n, double q)
{
    // n * (1 - q) >= 10, with slack for q's binary representation.
    return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-6;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
        (pos - static_cast<double>(lo));
}

std::optional<double>
supportedQuantile(const std::vector<double> &values, double q)
{
    if (!percentileSupported(values.size(), q))
        return std::nullopt;
    return quantile(values, q);
}

std::optional<double>
bestBlockQuantile(const std::vector<double> &values, double q, size_t blocks)
{
    std::optional<double> best;
    for (size_t b = 0; b < blocks; ++b) {
        const auto first = values.begin() +
            static_cast<std::ptrdiff_t>(values.size() * b / blocks);
        const auto last = values.begin() +
            static_cast<std::ptrdiff_t>(values.size() * (b + 1) / blocks);
        const auto v = supportedQuantile({first, last}, q);
        if (v && (!best || *v < *best))
            best = v;
    }
    return best;
}

namespace {

bool
includes(const PromText::Labels &labels, const PromText::Labels &match)
{
    for (const auto &[k, v] : match) {
        const auto it = labels.find(k);
        if (it == labels.end() || it->second != v)
            return false;
    }
    return true;
}

std::string
seriesKey(const std::string &name, const PromText::Labels &labels)
{
    std::string key = name;
    for (const auto &[k, v] : labels)
        key += '\x1f' + k + '=' + v;
    return key;
}

double
parseLe(const std::string &le)
{
    if (le == "+Inf")
        return std::numeric_limits<double>::infinity();
    return std::strtod(le.c_str(), nullptr);
}

} // namespace

void
PromText::add(const std::string &text)
{
    std::vector<Series> &doc = docs_.emplace_back();
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        Series s;
        size_t i = 0;
        while (i < line.size() && line[i] != '{' && line[i] != ' ')
            ++i;
        s.name = line.substr(0, i);
        if (i < line.size() && line[i] == '{') {
            ++i;
            while (i < line.size() && line[i] != '}') {
                const size_t eq = line.find('=', i);
                if (eq == std::string::npos || eq + 1 >= line.size() ||
                    line[eq + 1] != '"')
                    break;
                const std::string key = line.substr(i, eq - i);
                std::string value;
                size_t j = eq + 2;
                for (; j < line.size() && line[j] != '"'; ++j) {
                    if (line[j] == '\\' && j + 1 < line.size())
                        ++j;
                    value += line[j];
                }
                s.labels[key] = value;
                i = j + 1;
                if (i < line.size() && line[i] == ',')
                    ++i;
            }
            ++i; // past '}'
        }
        if (i >= line.size() || s.name.empty())
            continue;
        s.value = std::strtod(line.c_str() + i, nullptr);
        doc.push_back(std::move(s));
    }
}

std::optional<double>
PromText::sum(const std::string &name, const Labels &match) const
{
    std::optional<double> out;
    for (const auto &doc : docs_) {
        for (const Series &s : doc) {
            if (s.name == name && includes(s.labels, match))
                out = out.value_or(0.0) + s.value;
        }
    }
    return out;
}

std::map<std::string, double>
PromText::sumBy(const std::string &name, const std::string &by,
                const Labels &match) const
{
    std::map<std::string, double> out;
    for (const auto &doc : docs_) {
        for (const Series &s : doc) {
            if (s.name != name || !includes(s.labels, match))
                continue;
            const auto it = s.labels.find(by);
            if (it != s.labels.end())
                out[it->second] += s.value;
        }
    }
    return out;
}

double
PromText::cumulativeAt(const std::vector<std::pair<double, double>> &steps,
                       double le)
{
    double value = 0.0;
    for (const auto &[edge, count] : steps) {
        if (edge > le)
            break;
        value = count;
    }
    return value;
}

std::optional<double>
PromText::histogramQuantile(const std::string &name, double q,
                            const Labels &match) const
{
    // One step function per series (exposition, labels minus `le`),
    // merged by evaluating each at the union of edges.
    std::map<std::string, std::vector<std::pair<double, double>>> per;
    std::vector<double> edges;
    for (size_t d = 0; d < docs_.size(); ++d) {
        for (const Series &s : docs_[d]) {
            if (s.name != name + "_bucket" || !includes(s.labels, match))
                continue;
            const auto le = s.labels.find("le");
            if (le == s.labels.end())
                continue;
            Labels rest = s.labels;
            rest.erase("le");
            const double edge = parseLe(le->second);
            per[std::to_string(d) + seriesKey(name, rest)].emplace_back(
                edge, s.value);
            edges.push_back(edge);
        }
    }
    if (per.empty())
        return std::nullopt;
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (auto &[key, steps] : per)
        std::sort(steps.begin(), steps.end());

    std::vector<double> cumulative;
    for (const double edge : edges) {
        double c = 0.0;
        for (const auto &[key, steps] : per)
            c += cumulativeAt(steps, edge);
        cumulative.push_back(c);
    }
    const double total = cumulative.back();
    if (total <= 0.0 ||
        !percentileSupported(static_cast<size_t>(total + 0.5), q))
        return std::nullopt;
    const double target = q * total;
    double lower = 0.0;
    double below = 0.0;
    for (size_t i = 0; i < edges.size(); ++i) {
        if (cumulative[i] >= target && cumulative[i] > below) {
            if (std::isinf(edges[i]))
                return lower;
            return lower + (edges[i] - lower) *
                (target - below) / (cumulative[i] - below);
        }
        lower = edges[i];
        below = cumulative[i];
    }
    return lower;
}

PromText
PromText::minus(const PromText &before) const
{
    PromText out;
    for (size_t d = 0; d < docs_.size(); ++d) {
        std::map<std::string, double> exact;
        std::map<std::string, std::vector<std::pair<double, double>>>
            buckets;
        if (d < before.docs_.size()) {
            for (const Series &s : before.docs_[d]) {
                exact[seriesKey(s.name, s.labels)] = s.value;
                const auto le = s.labels.find("le");
                if (le != s.labels.end()) {
                    Labels rest = s.labels;
                    rest.erase("le");
                    buckets[seriesKey(s.name, rest)].emplace_back(
                        parseLe(le->second), s.value);
                }
            }
        }
        for (auto &[key, steps] : buckets)
            std::sort(steps.begin(), steps.end());

        std::vector<Series> &doc = out.docs_.emplace_back();
        for (Series s : docs_[d]) {
            const auto hit = exact.find(seriesKey(s.name, s.labels));
            if (hit != exact.end()) {
                s.value -= hit->second;
            } else if (const auto le = s.labels.find("le");
                       le != s.labels.end()) {
                Labels rest = s.labels;
                rest.erase("le");
                const auto steps = buckets.find(seriesKey(s.name, rest));
                if (steps != buckets.end())
                    s.value -=
                        cumulativeAt(steps->second, parseLe(le->second));
            }
            doc.push_back(std::move(s));
        }
    }
    return out;
}

namespace {

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

} // namespace

std::string
checkResult(const Query &query, const SiriusResult &result)
{
    using sirius::core::Degradation;
    using sirius::core::QueryClass;
    if (result.degradation != Degradation::None)
        return std::string("degraded ") +
            sirius::core::degradationName(result.degradation);
    switch (query.type) {
      case QueryType::VoiceCommand:
        if (result.queryClass != QueryClass::Action)
            return "VC not classified as an action";
        if (lower(result.action) != lower(query.text))
            return "action '" + result.action + "' != text";
        return "";
      case QueryType::VoiceImageQuery:
        if (result.matchedLandmark != query.landmarkId)
            return "landmark " + std::to_string(result.matchedLandmark) +
                " != " + std::to_string(query.landmarkId);
        [[fallthrough]];
      case QueryType::VoiceQuery:
        if (result.queryClass != QueryClass::Question)
            return "question not classified as a question";
        if (lower(result.answer).find(query.expectedAnswer) ==
            std::string::npos)
            return "answer '" + result.answer + "' lacks '" +
                query.expectedAnswer + "'";
        return "";
    }
    return "unknown query type";
}

} // namespace e2ebench
