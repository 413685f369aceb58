#include "fault/analytics.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <tuple>

#include "common/stats.hpp"
#include "obs/json.hpp"

namespace ftla::fault {

namespace {

HistogramSummary summarize(const Histogram& h) {
  HistogramSummary s;
  s.count = h.count();
  s.min = h.min();
  s.max = h.max();
  s.mean = h.mean();
  s.p50 = h.p50();
  s.p95 = h.p95();
  s.p99 = h.p99();
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    s.buckets.emplace_back(h.bucket_upper(i), h.bucket_hits(i));
  }
  return s;
}

/// The fault-free NoFt run of the same shape: the overhead denominator.
/// Virtual time is data-independent, so any matrix seed gives the same
/// makespan; memoization keys on what the timing model sees.
double baseline_seconds(
    std::map<std::tuple<int, int, int>, double>* cache, Algo algo, int n,
    int block) {
  const auto key = std::make_tuple(static_cast<int>(algo), n, block);
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  Scenario sc;
  sc.algo = algo;
  sc.variant = abft::Variant::NoFt;
  sc.recovery = abft::Recovery::Rerun;
  sc.n = n;
  sc.block = block;
  sc.matrix_seed = 1;
  sc.mtbf_s = 0.0;  // no arrival process, no planned faults
  const ScenarioResult res = run_scenario(sc);
  (*cache)[key] = res.seconds;
  return res.seconds;
}

void write_histogram_summary(const HistogramSummary& s, std::ostream& os) {
  using obs::fmt_double;
  os << "{\"buckets\":[";
  bool first = true;
  for (const auto& [upper, hits] : s.buckets) {
    if (!first) os << ',';
    first = false;
    os << "{\"le\":";
    if (std::isinf(upper)) {
      os << "\"inf\"";
    } else {
      os << fmt_double(upper);
    }
    os << ",\"n\":" << hits << '}';
  }
  os << "],\"count\":" << s.count << ",\"max\":" << fmt_double(s.max)
     << ",\"mean\":" << fmt_double(s.mean) << ",\"min\":" << fmt_double(s.min)
     << ",\"p50\":" << fmt_double(s.p50) << ",\"p95\":" << fmt_double(s.p95)
     << ",\"p99\":" << fmt_double(s.p99) << '}';
}

bool read_histogram_summary(const obs::JsonValue& v, HistogramSummary* out) {
  using obs::JsonValue;
  if (v.type != JsonValue::Type::Object) return false;
  HistogramSummary s;
  if (!obs::json_get_count(v, "count", &s.count) ||
      !obs::json_get_number(v, "min", &s.min) ||
      !obs::json_get_number(v, "max", &s.max) ||
      !obs::json_get_number(v, "mean", &s.mean) ||
      !obs::json_get_number(v, "p50", &s.p50) ||
      !obs::json_get_number(v, "p95", &s.p95) ||
      !obs::json_get_number(v, "p99", &s.p99)) {
    return false;
  }
  const JsonValue* buckets = v.find("buckets");
  if (buckets == nullptr || buckets->type != JsonValue::Type::Array) {
    return false;
  }
  for (const auto& b : buckets->elements) {
    if (b.type != JsonValue::Type::Object) return false;
    const JsonValue* le = b.find("le");
    long long hits = 0;
    if (le == nullptr || !obs::json_get_count(b, "n", &hits)) return false;
    double upper = 0.0;
    if (le->type == JsonValue::Type::String && le->str == "inf") {
      upper = std::numeric_limits<double>::infinity();
    } else if (le->type == JsonValue::Type::Number) {
      upper = le->number;
    } else {
      return false;
    }
    s.buckets.emplace_back(upper, hits);
  }
  *out = std::move(s);
  return true;
}

}  // namespace

CampaignAnalytics aggregate_campaign(const CampaignSummary& summary) {
  CampaignAnalytics out;
  out.scenarios = static_cast<int>(summary.observations.size());

  std::map<std::string, Histogram> latency;
  std::map<std::string, std::vector<double>> ratios;
  std::map<std::tuple<int, int, int>, double> baselines;

  for (const auto& obs : summary.observations) {
    const std::string verdict_key = std::string(to_string(obs.algo)) + "/" +
                                    abft::to_string(obs.variant) + "/" +
                                    abft::to_string(obs.recovery);
    out.verdicts[verdict_key][static_cast<int>(obs.verdict)] += 1;

    for (const auto& d : obs.detections) {
      if (d.latency_s < 0.0) continue;
      auto it = latency.find(to_string(d.type));
      if (it == latency.end()) {
        it = latency.emplace(to_string(d.type), Histogram{}).first;
      }
      it->second.add(d.latency_s);
    }

    if (obs.seconds > 0.0 && obs.n > 0 && obs.block > 0) {
      const double base =
          baseline_seconds(&baselines, obs.algo, obs.n, obs.block);
      if (base > 0.0) {
        const std::string overhead_key = std::string(to_string(obs.algo)) +
                                         "/" + abft::to_string(obs.variant);
        ratios[overhead_key].push_back(obs.seconds / base);
      }
    }
  }

  for (const auto& [type, h] : latency) {
    out.detection_latency.emplace(type, summarize(h));
  }
  for (auto& [key, samples] : ratios) {
    std::sort(samples.begin(), samples.end());
    CampaignAnalytics::OverheadStats st;
    st.samples = static_cast<long long>(samples.size());
    st.min = samples.front();
    st.max = samples.back();
    double sum = 0.0;
    for (const double r : samples) sum += r;
    st.mean = sum / static_cast<double>(samples.size());
    st.p50 = nearest_rank(samples, 50.0);
    st.p95 = nearest_rank(samples, 95.0);
    st.p99 = nearest_rank(samples, 99.0);
    out.overhead.emplace(key, st);
  }
  return out;
}

void write_analytics_json(const CampaignAnalytics& analytics,
                          std::ostream& os) {
  using obs::fmt_double;
  using obs::write_json_string;

  os << "{\"analytics_version\":" << CampaignAnalytics::kAnalyticsVersion
     << ",\"detection_latency\":{";
  bool first = true;
  for (const auto& [type, h] : analytics.detection_latency) {
    if (!first) os << ',';
    first = false;
    write_json_string(type, os);
    os << ':';
    write_histogram_summary(h, os);
  }
  os << "},\"meta\":{";
  first = true;
  for (const auto& [k, v] : analytics.meta) {
    if (!first) os << ',';
    first = false;
    write_json_string(k, os);
    os << ':';
    write_json_string(v, os);
  }
  os << "},\"overhead\":{";
  first = true;
  for (const auto& [key, st] : analytics.overhead) {
    if (!first) os << ',';
    first = false;
    write_json_string(key, os);
    os << ":{\"max\":" << fmt_double(st.max) << ",\"mean\":"
       << fmt_double(st.mean) << ",\"min\":" << fmt_double(st.min)
       << ",\"p50\":" << fmt_double(st.p50) << ",\"p95\":"
       << fmt_double(st.p95) << ",\"p99\":" << fmt_double(st.p99)
       << ",\"samples\":" << st.samples << '}';
  }
  os << "},\"scenarios\":" << analytics.scenarios << ",\"verdicts\":{";
  first = true;
  for (const auto& [key, row] : analytics.verdicts) {
    if (!first) os << ',';
    first = false;
    write_json_string(key, os);
    os << ":[";
    for (int i = 0; i < kVerdictCount; ++i) {
      if (i != 0) os << ',';
      os << row[static_cast<std::size_t>(i)];
    }
    os << ']';
  }
  os << "}}\n";
}

bool write_analytics_json_file(const CampaignAnalytics& analytics,
                               const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_analytics_json(analytics, os);
  return static_cast<bool>(os);
}

bool read_analytics_json(std::istream& is, CampaignAnalytics* out) {
  using obs::JsonValue;

  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  if (!obs::parse_json(text, &root) ||
      root.type != JsonValue::Type::Object) {
    return false;
  }
  long long version = 0;
  if (!obs::json_get_count(root, "analytics_version", &version) ||
      version != CampaignAnalytics::kAnalyticsVersion) {
    return false;
  }

  CampaignAnalytics a;
  long long scenarios = 0;
  if (!obs::json_get_count(root, "scenarios", &scenarios)) return false;
  a.scenarios = static_cast<int>(scenarios);

  if (const JsonValue* meta = root.find("meta");
      meta != nullptr && meta->type == JsonValue::Type::Object) {
    for (const auto& [k, v] : meta->members) {
      if (v.type != JsonValue::Type::String) return false;
      a.meta[k] = v.str;
    }
  }

  const JsonValue* latency = root.find("detection_latency");
  if (latency == nullptr || latency->type != JsonValue::Type::Object) {
    return false;
  }
  for (const auto& [type, v] : latency->members) {
    HistogramSummary h;
    if (!read_histogram_summary(v, &h)) return false;
    a.detection_latency.emplace(type, std::move(h));
  }

  const JsonValue* overhead = root.find("overhead");
  if (overhead == nullptr || overhead->type != JsonValue::Type::Object) {
    return false;
  }
  for (const auto& [key, v] : overhead->members) {
    if (v.type != JsonValue::Type::Object) return false;
    CampaignAnalytics::OverheadStats st;
    if (!obs::json_get_count(v, "samples", &st.samples) ||
        !obs::json_get_number(v, "min", &st.min) ||
        !obs::json_get_number(v, "max", &st.max) ||
        !obs::json_get_number(v, "mean", &st.mean) ||
        !obs::json_get_number(v, "p50", &st.p50) ||
        !obs::json_get_number(v, "p95", &st.p95) ||
        !obs::json_get_number(v, "p99", &st.p99)) {
      return false;
    }
    a.overhead.emplace(key, st);
  }

  const JsonValue* verdicts = root.find("verdicts");
  if (verdicts == nullptr || verdicts->type != JsonValue::Type::Object) {
    return false;
  }
  for (const auto& [key, v] : verdicts->members) {
    if (v.type != JsonValue::Type::Array ||
        v.elements.size() != static_cast<std::size_t>(kVerdictCount)) {
      return false;
    }
    std::array<long long, kVerdictCount> row{};
    for (std::size_t i = 0; i < v.elements.size(); ++i) {
      if (v.elements[i].type != JsonValue::Type::Number) return false;
      row[i] = static_cast<long long>(v.elements[i].number);
    }
    a.verdicts.emplace(key, row);
  }

  *out = std::move(a);
  return true;
}

bool read_analytics_json_file(const std::string& path,
                              CampaignAnalytics* out) {
  std::ifstream is(path);
  if (!is) return false;
  return read_analytics_json(is, out);
}

}  // namespace ftla::fault
