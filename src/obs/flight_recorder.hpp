// Flight recorder: a postmortem bundle for any CLI exiting nonzero.
//
// The recorder does not record anything itself — it composes views of
// the observability stores a CLI already owns (the bounded
// RingBufferSink, the MetricsRegistry, the SpanStore) and, on demand,
// serializes a bounded "what just happened" bundle: the last N events,
// the last N spans, every counter and gauge, free-form breadcrumbs the
// tool dropped along the way, and the exit code + reason being
// reported. CLIs dump it on any nonzero exit per the shared exit-code
// contract (common/exit_codes.hpp), replacing the ad-hoc trace/metrics/
// profile diagnostic triple CI used to re-run for.
//
// Determinism: everything in the bundle derives from virtual-clock
// stores, so the same failing run produces a byte-identical bundle —
// keys sorted at every level, doubles via fmt_double, schema-versioned
// (flight_version 1). read_flight_bundle() parses back the fields a
// test or triage script needs to reconcile the bundle against the
// metrics report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ftla::obs {

class MetricsRegistry;
class RingBufferSink;
class SpanStore;

class FlightRecorder {
 public:
  /// Tail depths: enough context to see the failure's neighborhood
  /// without an unbounded dump.
  static constexpr std::size_t kDefaultEventTail = 256;
  static constexpr std::size_t kDefaultSpanTail = 64;

  FlightRecorder() = default;

  // Attach the stores to snapshot at dump time. All optional; a null
  // attachment simply leaves its section empty. Pointers must outlive
  // the recorder's last write_bundle/dump_file call.
  void attach_events(const RingBufferSink* sink) { events_ = sink; }
  void attach_metrics(const MetricsRegistry* metrics) { metrics_ = metrics; }
  void attach_spans(const SpanStore* spans) { spans_ = spans; }

  /// Run description (tool name, arguments...). Exported sorted.
  void set_meta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }

  /// Appends a free-form breadcrumb ("parsed args", "campaign started").
  /// Kept in append order; the trail shows how far the tool got.
  void note(const std::string& text) { breadcrumbs_.push_back(text); }

  void set_event_tail(std::size_t n) { event_tail_ = n; }
  void set_span_tail(std::size_t n) { span_tail_ = n; }

  /// Serializes the bundle: byte-stable flight_version-1 JSON with the
  /// last event_tail events, last span_tail spans, all metrics, meta,
  /// breadcrumbs, and the exit code + reason being reported.
  void write_bundle(std::ostream& os, int exit_code,
                    const std::string& reason) const;

  /// write_bundle to `path`; returns false on I/O failure.
  bool dump_file(const std::string& path, int exit_code,
                 const std::string& reason) const;

  /// Where finish() dumps on every exit (a CLI's --postmortem-out).
  void set_postmortem_path(std::string path) {
    postmortem_path_ = std::move(path);
  }
  [[nodiscard]] const std::string& postmortem_path() const noexcept {
    return postmortem_path_;
  }

  /// The CLIs' single exit gate: dumps the bundle to the postmortem
  /// path (always) or to $FTLA_POSTMORTEM (nonzero exits only), then
  /// hands `exit_code` back. Best-effort: a failed dump never changes
  /// the exit code.
  int finish(int exit_code, const std::string& reason) const;

 private:
  const RingBufferSink* events_ = nullptr;
  const MetricsRegistry* metrics_ = nullptr;
  const SpanStore* spans_ = nullptr;
  std::string postmortem_path_;
  std::map<std::string, std::string> meta_;
  std::vector<std::string> breadcrumbs_;
  std::size_t event_tail_ = kDefaultEventTail;
  std::size_t span_tail_ = kDefaultSpanTail;
};

/// Minimal event view parsed back from a bundle — the fields triage
/// needs to line events up against the metrics report.
struct FlightEvent {
  std::int64_t seq = -1;
  std::string kind;
  double time = 0.0;
  std::string name;
};

/// Read-back of the fields tests and triage scripts consume.
struct FlightBundle {
  int flight_version = 0;
  int exit_code = 0;
  std::string reason;
  std::map<std::string, std::string> meta;
  std::vector<std::string> breadcrumbs;
  std::map<std::string, long long> counters;
  std::map<std::string, double> gauges;
  long long events_posted = 0;
  long long events_dropped = 0;
  std::vector<FlightEvent> events;
  long long spans_recorded = 0;
  long long spans_dropped = 0;
  long long span_tail = 0;  ///< spans actually present in the bundle
};

/// Parses a flight_version-1 bundle written by write_bundle. Returns
/// false on malformed input or a schema-version mismatch.
bool read_flight_bundle(std::istream& is, FlightBundle* out);
bool read_flight_bundle_file(const std::string& path, FlightBundle* out);

}  // namespace ftla::obs
