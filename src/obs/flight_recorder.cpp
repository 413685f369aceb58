#include "obs/flight_recorder.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/exit_codes.hpp"
#include "obs/event_sink.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ftla::obs {

void FlightRecorder::write_bundle(std::ostream& os, int exit_code,
                                  const std::string& reason) const {
  os << "{\"breadcrumbs\":[";
  bool first = true;
  for (const auto& b : breadcrumbs_) {
    if (!first) os << ',';
    first = false;
    write_json_string(b, os);
  }
  os << "],\"counters\":{";
  first = true;
  if (metrics_ != nullptr) {
    for (const auto& [name, v] : metrics_->counters()) {
      if (!first) os << ',';
      first = false;
      write_json_string(name, os);
      os << ':' << v;
    }
  }
  os << "},\"events\":{\"dropped\":"
     << (events_ != nullptr ? static_cast<long long>(events_->dropped()) : 0)
     << ",\"posted\":" << (events_ != nullptr ? events_->posted() : 0)
     << ",\"tail\":[";
  first = true;
  if (events_ != nullptr) {
    const std::vector<Event> all = events_->events();
    const std::size_t start =
        all.size() > event_tail_ ? all.size() - event_tail_ : 0;
    for (std::size_t i = start; i < all.size(); ++i) {
      if (!first) os << ',';
      first = false;
      event_to_json(all[i], os);
    }
  }
  os << "]},\"exit_code\":" << exit_code << ",\"flight_version\":1"
     << ",\"gauges\":{";
  first = true;
  if (metrics_ != nullptr) {
    for (const auto& [name, v] : metrics_->gauges()) {
      if (!first) os << ',';
      first = false;
      write_json_string(name, os);
      os << ':' << fmt_double(v);
    }
  }
  os << "},\"meta\":{";
  first = true;
  for (const auto& [k, v] : meta_) {
    if (!first) os << ',';
    first = false;
    write_json_string(k, os);
    os << ':';
    write_json_string(v, os);
  }
  os << "},\"reason\":";
  write_json_string(reason, os);
  os << ",\"spans\":{\"dropped\":"
     << (spans_ != nullptr ? static_cast<long long>(spans_->dropped()) : 0)
     << ",\"recorded\":"
     << (spans_ != nullptr ? static_cast<long long>(spans_->size()) : 0)
     << ",\"tail\":[";
  first = true;
  if (spans_ != nullptr) {
    const std::vector<Span> all = spans_->snapshot();
    const std::size_t start =
        all.size() > span_tail_ ? all.size() - span_tail_ : 0;
    for (std::size_t i = start; i < all.size(); ++i) {
      const Span& s = all[i];
      if (!first) os << ',';
      first = false;
      os << "{\"end\":" << fmt_double(s.end) << ",\"flops\":" << s.flops
         << ",\"iteration\":" << s.iteration << ",\"lane\":" << s.lane
         << ",\"name\":";
      write_json_string(s.name, os);
      os << ",\"phase\":";
      write_json_string(to_string(s.phase), os);
      os << ",\"start\":" << fmt_double(s.start) << '}';
    }
  }
  os << "]}}\n";
}

bool FlightRecorder::dump_file(const std::string& path, int exit_code,
                               const std::string& reason) const {
  std::ofstream os(path);
  if (!os) return false;
  write_bundle(os, exit_code, reason);
  return static_cast<bool>(os);
}

int FlightRecorder::finish(int exit_code, const std::string& reason) const {
  if (!postmortem_path_.empty()) {
    dump_file(postmortem_path_, exit_code, reason);
  } else if (const char* env = std::getenv("FTLA_POSTMORTEM");
             env != nullptr && exit_code != common::kExitSuccess) {
    dump_file(env, exit_code, reason);
  }
  return exit_code;
}

bool read_flight_bundle(std::istream& is, FlightBundle* out) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  if (!parse_json(text, &root) || root.type != JsonValue::Type::Object) {
    return false;
  }

  FlightBundle bundle;
  long long version = 0;
  if (!json_get_count(root, "flight_version", &version) || version != 1) {
    return false;
  }
  bundle.flight_version = static_cast<int>(version);
  long long exit_code = 0;
  if (!json_get_count(root, "exit_code", &exit_code)) return false;
  bundle.exit_code = static_cast<int>(exit_code);
  if (!json_get_string(root, "reason", &bundle.reason)) return false;

  if (const JsonValue* meta = root.find("meta");
      meta != nullptr && meta->type == JsonValue::Type::Object) {
    for (const auto& [k, v] : meta->members) {
      if (v.type != JsonValue::Type::String) return false;
      bundle.meta[k] = v.str;
    }
  }
  if (const JsonValue* crumbs = root.find("breadcrumbs");
      crumbs != nullptr && crumbs->type == JsonValue::Type::Array) {
    for (const auto& c : crumbs->elements) {
      if (c.type != JsonValue::Type::String) return false;
      bundle.breadcrumbs.push_back(c.str);
    }
  }
  if (const JsonValue* counters = root.find("counters");
      counters != nullptr && counters->type == JsonValue::Type::Object) {
    for (const auto& [name, v] : counters->members) {
      if (v.type != JsonValue::Type::Number) return false;
      bundle.counters[name] = static_cast<long long>(v.number);
    }
  }
  if (const JsonValue* gauges = root.find("gauges");
      gauges != nullptr && gauges->type == JsonValue::Type::Object) {
    for (const auto& [name, v] : gauges->members) {
      if (v.type != JsonValue::Type::Number) return false;
      bundle.gauges[name] = v.number;
    }
  }

  const JsonValue* events = root.find("events");
  if (events == nullptr || events->type != JsonValue::Type::Object) {
    return false;
  }
  if (!json_get_count(*events, "posted", &bundle.events_posted) ||
      !json_get_count(*events, "dropped", &bundle.events_dropped)) {
    return false;
  }
  const JsonValue* tail = events->find("tail");
  if (tail == nullptr || tail->type != JsonValue::Type::Array) return false;
  for (const auto& ev : tail->elements) {
    if (ev.type != JsonValue::Type::Object) return false;
    FlightEvent fe;
    if (!json_get_int64(ev, "seq", &fe.seq) ||
        !json_get_string(ev, "kind", &fe.kind) ||
        !json_get_number(ev, "t", &fe.time)) {
      return false;
    }
    json_get_string(ev, "name", &fe.name);  // omitted when empty
    bundle.events.push_back(std::move(fe));
  }

  const JsonValue* spans = root.find("spans");
  if (spans == nullptr || spans->type != JsonValue::Type::Object) {
    return false;
  }
  if (!json_get_count(*spans, "recorded", &bundle.spans_recorded) ||
      !json_get_count(*spans, "dropped", &bundle.spans_dropped)) {
    return false;
  }
  if (const JsonValue* span_tail = spans->find("tail");
      span_tail != nullptr && span_tail->type == JsonValue::Type::Array) {
    bundle.span_tail = static_cast<long long>(span_tail->elements.size());
  } else {
    return false;
  }

  *out = std::move(bundle);
  return true;
}

bool read_flight_bundle_file(const std::string& path, FlightBundle* out) {
  std::ifstream is(path);
  if (!is) return false;
  return read_flight_bundle(is, out);
}

}  // namespace ftla::obs
