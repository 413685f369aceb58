#include "sim/trace_export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "sim/machine.hpp"

namespace ftla::sim {

namespace {

std::string lane_name(int lane) {
  switch (lane) {
    case kHostLane: return "host CPU";
    case kH2dLane: return "H2D engine";
    case kD2hLane: return "D2H engine";
    default: return "stream " + std::to_string(lane);
  }
}

// Chrome tracing sorts lanes by tid; map our lanes to stable ids.
int lane_tid(int lane) {
  switch (lane) {
    case kHostLane: return 0;
    case kH2dLane: return 1;
    case kD2hLane: return 2;
    default: return 10 + lane;
  }
}

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

/// True for obs kinds that duplicate the machine's spans — the merger
/// skips them.
bool is_machine_span(obs::EventKind k) {
  return k == obs::EventKind::Kernel || k == obs::EventKind::HostTask ||
         k == obs::EventKind::Copy || k == obs::EventKind::Sync;
}

void write_event_args(std::ostream& os, const obs::Event& e) {
  os << "{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  if (!e.op.empty()) {
    sep();
    os << "\"op\":\"";
    json_escape(os, e.op);
    os << "\"";
  }
  if (e.iteration >= 0) {
    sep();
    os << "\"iter\":" << e.iteration;
  }
  if (e.block_row >= 0 || e.block_col >= 0) {
    sep();
    os << "\"block_row\":" << e.block_row << ",\"block_col\":" << e.block_col;
  }
  if (e.row >= 0 || e.col >= 0) {
    sep();
    os << "\"row\":" << e.row << ",\"col\":" << e.col;
  }
  if (e.kind == obs::EventKind::Verification ||
      e.kind == obs::EventKind::Detection) {
    sep();
    os << "\"pass\":" << (e.pass ? "true" : "false");
  }
  if (e.flops != 0) {
    sep();
    os << "\"flops\":" << e.flops;
  }
  if (e.bytes != 0) {
    sep();
    os << "\"bytes\":" << e.bytes;
  }
  if (e.units != 0) {
    sep();
    os << "\"units\":" << e.units;
  }
  if (e.value != 0.0 || e.kind == obs::EventKind::Detection ||
      e.kind == obs::EventKind::Placement) {
    sep();
    os << "\"value\":" << e.value;
  }
  if (e.value2 != 0.0 || e.kind == obs::EventKind::Placement) {
    sep();
    os << "\"value2\":" << e.value2;
  }
  if (e.correlation >= 0) {
    sep();
    os << "\"injection_id\":" << e.correlation;
  }
  if (!e.detail.empty()) {
    sep();
    os << "\"detail\":\"";
    json_escape(os, e.detail);
    os << "\"";
  }
  os << "}";
}

OccupancySteps to_steps(std::vector<std::pair<double, long long>>& deltas) {
  std::sort(deltas.begin(), deltas.end());
  OccupancySteps steps;
  long long level = 0;
  for (std::size_t i = 0; i < deltas.size();) {
    const double t = deltas[i].first;
    for (; i < deltas.size() && deltas[i].first == t; ++i) {
      level += deltas[i].second;
    }
    steps.emplace_back(t, level);
  }
  return steps;
}

}  // namespace

Occupancy derive_occupancy(const std::vector<obs::Span>& spans) {
  std::vector<std::pair<double, long long>> sm, h2d, d2h, verify;
  for (const auto& s : spans) {
    if (s.lane >= 0) {  // GPU pool work: kernels and d2d copies
      sm.emplace_back(s.start, s.units);
      sm.emplace_back(s.end, -s.units);
    } else if (s.lane == kH2dLane) {
      h2d.emplace_back(s.start, 1);
      h2d.emplace_back(s.end, -1);
    } else if (s.lane == kD2hLane) {
      d2h.emplace_back(s.start, 1);
      d2h.emplace_back(s.end, -1);
    }
    if (s.name.rfind("verify", 0) == 0 || s.name.rfind("recalc", 0) == 0) {
      verify.emplace_back(s.start, 1);
      verify.emplace_back(s.end, -1);
    }
  }
  return Occupancy{to_steps(sm), to_steps(h2d), to_steps(d2h),
                   to_steps(verify)};
}

void write_chrome_trace(const obs::SpanStore& store,
                        const std::vector<obs::Event>& events,
                        std::ostream& os) {
  const std::vector<obs::Span> spans = store.snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  // Lane naming metadata.
  std::set<int> lanes;
  for (const auto& s : spans) lanes.insert(s.lane);
  for (const auto& e : events) {
    if (!is_machine_span(e.kind)) lanes.insert(e.lane);
  }
  for (const int lane : lanes) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << lane_tid(lane) << ",\"args\":{\"name\":\"";
    json_escape(os, lane_name(lane));
    os << "\"}}";
  }
  // Complete events; virtual seconds -> microseconds.
  for (const auto& s : spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    json_escape(os, s.name);
    os << "\",\"cat\":\"" << s.cls
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane_tid(s.lane)
       << ",\"ts\":" << s.start * 1e6
       << ",\"dur\":" << (s.end - s.start) * 1e6
       << ",\"args\":{\"sm_units\":" << s.units;
    if (s.flops != 0) os << ",\"flops\":" << s.flops;
    os << "}}";
  }

  // Counter tracks ("ph":"C"): SM occupancy, copy-engine busy and
  // outstanding verification work over time.
  const Occupancy occ = derive_occupancy(spans);
  auto counter_track = [&](const char* name, const char* key,
                           const OccupancySteps& steps) {
    for (const auto& [t, level] : steps) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"pid\":1,\"ts\":"
         << t * 1e6 << ",\"args\":{\"" << key << "\":" << level << "}}";
    }
  };
  counter_track("sm_units_in_use", "units", occ.sm_units);
  counter_track("h2d_engine_busy", "copies", occ.h2d_copies);
  counter_track("d2h_engine_busy", "copies", occ.d2h_copies);
  counter_track("outstanding_verifications", "spans", occ.verifications);

  // Semantic telemetry events as thread-scoped instant events.
  for (const auto& e : events) {
    if (is_machine_span(e.kind)) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    json_escape(os, e.name.empty() ? to_string(e.kind) : e.name);
    os << "\",\"cat\":\"" << to_string(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
       << lane_tid(e.lane) << ",\"ts\":" << e.time * 1e6 << ",\"args\":";
    write_event_args(os, e);
    os << "}";
  }

  // Flow arrows for each correlated fault chain. A flow needs at least
  // two points, so arrows are emitted only for injections that were
  // detected; the detection is the flow's end unless a correction or
  // checksum repair continues the chain.
  struct Chain {
    const obs::Event* injection = nullptr;
    const obs::Event* detection = nullptr;
    const obs::Event* repair = nullptr;  // first correction / chk repair
  };
  std::map<std::int64_t, Chain> chains;
  for (const auto& e : events) {
    if (e.correlation < 0) continue;
    Chain& c = chains[e.correlation];
    switch (e.kind) {
      case obs::EventKind::FaultInjected:
        if (c.injection == nullptr) c.injection = &e;
        break;
      case obs::EventKind::Detection:
        if (c.detection == nullptr) c.detection = &e;
        break;
      case obs::EventKind::Correction:
      case obs::EventKind::ChecksumRepair:
        if (c.repair == nullptr) c.repair = &e;
        break;
      default: break;
    }
  }
  auto flow = [&](const obs::Event& e, char ph, std::int64_t id) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"fault\",\"cat\":\"fault\",\"ph\":\"" << ph
       << "\",\"id\":" << id << ",\"pid\":1,\"tid\":" << lane_tid(e.lane)
       << ",\"ts\":" << e.time * 1e6 << "}";
  };
  for (const auto& [id, c] : chains) {
    if (c.injection == nullptr || c.detection == nullptr) continue;
    flow(*c.injection, 's', id);
    flow(*c.detection, c.repair != nullptr ? 't' : 'f', id);
    if (c.repair != nullptr) flow(*c.repair, 'f', id);
  }
  os << "]}";
}

bool write_chrome_trace_file(const obs::SpanStore& spans,
                             const std::vector<obs::Event>& events,
                             const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(spans, events, f);
  return static_cast<bool>(f);
}

void print_trace_summary(const obs::SpanStore& store, double makespan,
                         std::ostream& os, int strip_width) {
  const std::vector<obs::Span> spans = store.snapshot();
  struct LaneStat {
    long long count = 0;
    double busy = 0.0;
    std::vector<char> strip;
  };
  std::map<int, LaneStat> lanes;
  for (const auto& s : spans) {
    auto& ls = lanes[s.lane];
    ++ls.count;
    ls.busy += s.end - s.start;
    if (ls.strip.empty()) ls.strip.assign(strip_width, '.');
    if (makespan > 0.0) {
      int from = static_cast<int>(s.start / makespan * strip_width);
      int to = static_cast<int>(s.end / makespan * strip_width);
      from = std::clamp(from, 0, strip_width - 1);
      to = std::clamp(to, from, strip_width - 1);
      for (int i = from; i <= to; ++i) ls.strip[i] = '#';
    }
  }
  os << "trace summary — makespan " << makespan << " s, " << spans.size()
     << " ops";
  if (store.dropped() > 0) {
    os << " (" << store.dropped() << " records dropped at the trace cap of "
       << store.limit() << ")";
  }
  os << "\n";
  for (const auto& [lane, ls] : lanes) {
    const double util = makespan > 0.0 ? ls.busy / makespan : 0.0;
    os << "  " << lane_name(lane) << ": " << ls.count << " ops, busy "
       << ls.busy << " s (" << static_cast<int>(util * 100.0) << "%)\n    ["
       << std::string(ls.strip.begin(), ls.strip.end()) << "]\n";
  }
}

}  // namespace ftla::sim
