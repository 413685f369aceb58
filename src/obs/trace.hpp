// Causal tracing for the fleet service stack.
//
// A *trace* is the full causal story of one submitted job: the queue
// wait, every placement attempt, the driver invocation it resolved to,
// the panel checkpoints it cut, the DAG tasks it scheduled, and the
// loss / migrate / resume steps that recovery inserted between them.
// Each step is a TraceSpan carrying {trace_id, span_id, parent_span,
// device, tenant} plus virtual-time start/end stamps, so a flat span
// file reassembles into one tree per job even when the spans were
// recorded on different devices.
//
// Determinism is the load-bearing property: trace and span ids are
// *derived*, never drawn. derive_trace_id mixes the campaign seed with
// the job sequence number; derive_span_id mixes the parent span id with
// a child index that is a function of program structure (attempt
// number, checkpoint iteration, DAG task id) — never of wall clock,
// thread identity, or allocation order. Two runs of the same seed
// therefore produce byte-identical trace files regardless of thread
// count, which is what lets `ftla_trace_cli --diff` gate CI.
//
// Serialization follows the obs export conventions (json.hpp): keys
// sorted, doubles through fmt_double, a `trace_version` field first.
// Ids are printed as fixed-width lowercase hex strings because JSON
// numbers cannot carry 64 bits exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace ftla::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// Current trace file schema version.
inline constexpr int kTraceVersion = 1;

// Child-index namespaces for derive_span_id. Structural children of a
// span use small indices (attempt number, fixed slots); the bases keep
// per-iteration, per-checkpoint and per-DAG-task children from ever
// colliding with them or each other.
inline constexpr std::uint64_t kTraceCheckpointChildBase = 1ull << 16;
inline constexpr std::uint64_t kTraceIterationChildBase = 2ull << 16;
inline constexpr std::uint64_t kTraceTaskChildBase = 3ull << 16;
/// Fixed child index the ABFT driver roots its "factorize" span at —
/// callers handing a context to the driver keep their own direct
/// children below this value.
inline constexpr std::uint64_t kTraceDriverChild = 8;

/// Trace id for the `sequence`-th job derived from a campaign/run seed.
/// Pure mixing (splitmix64-style), never zero.
[[nodiscard]] TraceId derive_trace_id(std::uint64_t seed,
                                      std::uint64_t sequence);

/// Span id for the `child_index`-th structural child of `parent`.
/// Pure mixing, never zero. Distinct (parent, child_index) pairs map to
/// distinct ids for all practical purposes.
[[nodiscard]] SpanId derive_span_id(SpanId parent, std::uint64_t child_index);

/// Fixed-width lowercase hex rendering of an id (16 chars).
[[nodiscard]] std::string format_trace_id(std::uint64_t id);

/// Parses a format_trace_id string back; false on malformed input.
bool parse_trace_id(const std::string& text, std::uint64_t* out);

/// The propagation handle threaded from service::JobSpec down through
/// driver options into DAG task execution. `span_id` is the would-be
/// parent of any span recorded under this context.
struct TraceContext {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  int device = -1;
  std::string tenant;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
  /// Context for a child span: same trace/device/tenant, new parent.
  [[nodiscard]] TraceContext child(std::uint64_t child_index) const {
    TraceContext c = *this;
    c.span_id = derive_span_id(span_id, child_index);
    return c;
  }
  /// The same context attributed to `dev` (-1 = host/service).
  [[nodiscard]] TraceContext on(int dev) const {
    TraceContext c = *this;
    c.device = dev;
    return c;
  }
};

/// One recorded causal step. `end == start` marks an instantaneous
/// event span (submit, loss, complete markers).
struct TraceSpan {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_span = 0;  ///< 0 for the root span of a trace
  std::string name;        ///< short label ("attempt", "checkpoint", ...)
  std::string kind;        ///< job|queue|attempt|driver|pass|checkpoint|
                           ///< task|marker
  int device = -1;         ///< fleet device ordinal, -1 for host/service
  std::string tenant;
  double start = 0.0;      ///< virtual seconds (fleet-reconciled clock)
  double end = 0.0;
  std::string status;      ///< "ok", "loss", "error", "" (markers)
  std::string detail;      ///< free-form context
};

/// Thread-safe bounded span collector. Recording order does not matter:
/// exports sort into a canonical order, so concurrent scenario workers
/// feeding one store (or per-scenario stores merged in draw order)
/// produce identical files.
class TraceStore {
 public:
  explicit TraceStore(std::size_t capacity = 1u << 20);

  void record(const TraceSpan& span);
  void append(const std::vector<TraceSpan>& spans);

  [[nodiscard]] std::vector<TraceSpan> snapshot() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const;
  void clear();

 private:
  mutable common::Mutex mu_;
  std::vector<TraceSpan> spans_ FTLA_GUARDED_BY(mu_);
  std::size_t capacity_;
  std::size_t dropped_ FTLA_GUARDED_BY(mu_) = 0;
};

/// Records one span of `ctx`'s trace, on its device and for its tenant.
/// The service, the ABFT driver and the task executor all record their
/// spans through it. A no-op without a store or a valid context.
void record_span(TraceStore* store, const TraceContext& ctx, SpanId id,
                 SpanId parent, const char* name, const char* kind,
                 double start, double end, const char* status,
                 std::string detail = {});

/// A complete trace file: spans in canonical order (trace_id, start,
/// end, span_id) plus the count of spans the store had to drop.
struct TraceReport {
  std::vector<TraceSpan> spans;
  std::int64_t dropped = 0;

  /// Snapshot + canonical sort.
  [[nodiscard]] static TraceReport build(const TraceStore& store);

  /// Byte-stable trace_version-1 JSON.
  void write(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;
  bool write_file(const std::string& path) const;

  static bool read(const std::string& text, TraceReport* out,
                   std::string* error = nullptr);
  static bool read_file(const std::string& path, TraceReport* out,
                        std::string* error = nullptr);
};

/// One span with its children, reassembled. Children are ordered by
/// (start, end, span_id) — i.e. causal order under the virtual clock.
struct TraceNode {
  const TraceSpan* span = nullptr;
  std::vector<TraceNode> children;
};

/// One reassembled trace. Spans whose parent id never appears in the
/// file surface as extra roots after the true root, never silently
/// dropped; `missing_parents` counts them.
struct TraceTree {
  TraceId trace_id = 0;
  std::vector<TraceNode> roots;
  int missing_parents = 0;
};

/// Cross-device reassembly: groups spans by trace and rebuilds each
/// parent/child tree. Trees are ordered by trace_id. The nodes point
/// into `report.spans`, so the report must outlive the trees; a
/// temporary report is refused.
[[nodiscard]] std::vector<TraceTree> assemble_traces(
    const TraceReport& report);
std::vector<TraceTree> assemble_traces(TraceReport&&) = delete;

/// Span filter for the CLI. Zero / empty / -2 fields match everything.
struct TraceFilter {
  TraceId trace_id = 0;
  std::string tenant;
  int device = -2;
};

[[nodiscard]] TraceReport filter_trace(const TraceReport& report,
                                       const TraceFilter& filter);

/// Text waterfall: one line per span, indented by tree depth, with a
/// bar positioned on a shared virtual-time axis. Deterministic.
[[nodiscard]] std::string render_waterfall(const TraceReport& report,
                                           int width = 48);

/// Structural trace diff: matches traces by trace_id and compares span
/// trees recursively — name, kind, device, tenant, status, child count
/// and order — while ignoring absolute time stamps, so two runs of the
/// same seed compare clean even if one embeds a shifted clock.
struct TraceDiffResult {
  std::vector<std::string> differences;
  [[nodiscard]] bool identical() const { return differences.empty(); }
};

[[nodiscard]] TraceDiffResult diff_traces(const TraceReport& a,
                                          const TraceReport& b,
                                          std::size_t max_differences = 64);

}  // namespace ftla::obs
