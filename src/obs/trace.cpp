#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace ftla::obs {

namespace {

/// splitmix64 finalizer — the standard 64-bit avalanche mix. Pure
/// arithmetic: equal inputs give equal ids on every platform.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

TraceId derive_trace_id(std::uint64_t seed, std::uint64_t sequence) {
  const std::uint64_t id = mix64(mix64(seed) ^ (sequence + 1));
  return id != 0 ? id : 1;
}

SpanId derive_span_id(SpanId parent, std::uint64_t child_index) {
  const std::uint64_t id = mix64(parent ^ mix64(child_index + 1));
  return id != 0 ? id : 1;
}

std::string format_trace_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

bool parse_trace_id(const std::string& text, std::uint64_t* out) {
  // Strict: exactly the 16 lowercase hex digits format_trace_id emits,
  // so ids survive a JSON round trip byte-for-byte.
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

TraceStore::TraceStore(std::size_t capacity) : capacity_(capacity) {}

void TraceStore::record(const TraceSpan& span) {
  common::MutexLock lk(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

void TraceStore::append(const std::vector<TraceSpan>& spans) {
  common::MutexLock lk(mu_);
  for (const TraceSpan& s : spans) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      continue;
    }
    spans_.push_back(s);
  }
}

std::vector<TraceSpan> TraceStore::snapshot() const {
  common::MutexLock lk(mu_);
  return spans_;
}

std::size_t TraceStore::size() const {
  common::MutexLock lk(mu_);
  return spans_.size();
}

std::size_t TraceStore::dropped() const {
  common::MutexLock lk(mu_);
  return dropped_;
}

void TraceStore::clear() {
  common::MutexLock lk(mu_);
  spans_.clear();
  dropped_ = 0;
}

void record_span(TraceStore* store, const TraceContext& ctx, SpanId id,
                 SpanId parent, const char* name, const char* kind,
                 double start, double end, const char* status,
                 std::string detail) {
  if (store == nullptr || !ctx.valid()) return;
  store->record(TraceSpan{ctx.trace_id, id, parent, name, kind, ctx.device,
                          ctx.tenant, start, end, status, std::move(detail)});
}

namespace {

/// Canonical span order: by trace, then causally by virtual time, with
/// the span id as the final tiebreak so equal-time markers still sort
/// identically across runs.
bool canonical_less(const TraceSpan& a, const TraceSpan& b) {
  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  return a.span_id < b.span_id;
}

void write_span(const TraceSpan& s, std::ostream& os) {
  os << "{\"detail\":";
  write_json_string(s.detail, os);
  os << ",\"device\":" << s.device;
  os << ",\"end\":" << fmt_double(s.end);
  os << ",\"kind\":";
  write_json_string(s.kind, os);
  os << ",\"name\":";
  write_json_string(s.name, os);
  os << ",\"parent_span\":";
  write_json_string(format_trace_id(s.parent_span), os);
  os << ",\"span_id\":";
  write_json_string(format_trace_id(s.span_id), os);
  os << ",\"start\":" << fmt_double(s.start);
  os << ",\"status\":";
  write_json_string(s.status, os);
  os << ",\"tenant\":";
  write_json_string(s.tenant, os);
  os << ",\"trace_id\":";
  write_json_string(format_trace_id(s.trace_id), os);
  os << "}";
}

bool read_span(const JsonValue& v, TraceSpan* out, std::string* error) {
  if (v.type != JsonValue::Type::Object) {
    if (error) *error = "span is not an object";
    return false;
  }
  std::string id;
  if (!json_get_string(v, "trace_id", &id) ||
      !parse_trace_id(id, &out->trace_id)) {
    if (error) *error = "span missing trace_id";
    return false;
  }
  if (!json_get_string(v, "span_id", &id) ||
      !parse_trace_id(id, &out->span_id)) {
    if (error) *error = "span missing span_id";
    return false;
  }
  if (!json_get_string(v, "parent_span", &id) ||
      !parse_trace_id(id, &out->parent_span)) {
    if (error) *error = "span missing parent_span";
    return false;
  }
  json_get_string(v, "name", &out->name);
  json_get_string(v, "kind", &out->kind);
  json_get_string(v, "tenant", &out->tenant);
  json_get_string(v, "status", &out->status);
  json_get_string(v, "detail", &out->detail);
  double d = 0.0;
  if (json_get_number(v, "device", &d)) out->device = static_cast<int>(d);
  json_get_number(v, "start", &out->start);
  json_get_number(v, "end", &out->end);
  return true;
}

}  // namespace

TraceReport TraceReport::build(const TraceStore& store) {
  TraceReport r;
  r.spans = store.snapshot();
  r.dropped = static_cast<std::int64_t>(store.dropped());
  std::sort(r.spans.begin(), r.spans.end(), canonical_less);
  return r;
}

void TraceReport::write(std::ostream& os) const {
  os << "{\"dropped\":" << dropped << ",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n";
    write_span(spans[i], os);
  }
  if (!spans.empty()) os << "\n";
  os << "],\"trace_version\":" << kTraceVersion << "}\n";
}

std::string TraceReport::to_string() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

bool TraceReport::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write(os);
  os.flush();
  return os.good();
}

bool TraceReport::read(const std::string& text, TraceReport* out,
                       std::string* error) {
  JsonValue doc;
  if (!parse_json(text, &doc) || doc.type != JsonValue::Type::Object) {
    if (error) *error = "malformed JSON";
    return false;
  }
  long long version = 0;
  if (!json_get_count(doc, "trace_version", &version) ||
      version != kTraceVersion) {
    if (error) *error = "missing or unsupported trace_version";
    return false;
  }
  out->spans.clear();
  out->dropped = 0;
  long long dropped = 0;
  json_get_count(doc, "dropped", &dropped);
  out->dropped = dropped;
  const JsonValue* spans = doc.find("spans");
  if (spans == nullptr || spans->type != JsonValue::Type::Array) {
    if (error) *error = "missing spans array";
    return false;
  }
  out->spans.reserve(spans->elements.size());
  for (const JsonValue& e : spans->elements) {
    TraceSpan s;
    if (!read_span(e, &s, error)) return false;
    out->spans.push_back(std::move(s));
  }
  std::sort(out->spans.begin(), out->spans.end(), canonical_less);
  return true;
}

bool TraceReport::read_file(const std::string& path, TraceReport* out,
                            std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return read(buf.str(), out, error);
}

namespace {

TraceNode build_node(
    const TraceSpan* span,
    const std::map<SpanId, std::vector<const TraceSpan*>>& children) {
  TraceNode node;
  node.span = span;
  auto it = children.find(span->span_id);
  if (it != children.end()) {
    node.children.reserve(it->second.size());
    for (const TraceSpan* c : it->second) {
      node.children.push_back(build_node(c, children));
    }
  }
  return node;
}

}  // namespace

std::vector<TraceTree> assemble_traces(const TraceReport& report) {
  // Group by trace id; std::map keeps trees ordered by trace_id.
  std::map<TraceId, std::vector<const TraceSpan*>> by_trace;
  for (const TraceSpan& s : report.spans) {
    by_trace[s.trace_id].push_back(&s);
  }
  std::vector<TraceTree> trees;
  trees.reserve(by_trace.size());
  for (auto& [trace_id, spans] : by_trace) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceSpan* a, const TraceSpan* b) {
                       return canonical_less(*a, *b);
                     });
    std::map<SpanId, const TraceSpan*> by_id;
    for (const TraceSpan* s : spans) by_id.emplace(s->span_id, s);
    std::map<SpanId, std::vector<const TraceSpan*>> children;
    std::vector<const TraceSpan*> roots;
    TraceTree tree;
    tree.trace_id = trace_id;
    for (const TraceSpan* s : spans) {
      const bool has_parent =
          s->parent_span != 0 && by_id.count(s->parent_span) != 0 &&
          s->parent_span != s->span_id;
      if (has_parent) {
        children[s->parent_span].push_back(s);
      } else {
        if (s->parent_span != 0) ++tree.missing_parents;
        roots.push_back(s);
      }
    }
    for (const TraceSpan* r : roots) {
      tree.roots.push_back(build_node(r, children));
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

TraceReport filter_trace(const TraceReport& report,
                         const TraceFilter& filter) {
  TraceReport out;
  out.dropped = report.dropped;
  for (const TraceSpan& s : report.spans) {
    if (filter.trace_id != 0 && s.trace_id != filter.trace_id) continue;
    if (!filter.tenant.empty() && s.tenant != filter.tenant) continue;
    if (filter.device != -2 && s.device != filter.device) continue;
    out.spans.push_back(s);
  }
  return out;
}

namespace {

std::string fmt_time(double t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  return buf;
}

void render_node(const TraceNode& node, int depth, double t0, double t1,
                 int width, std::ostringstream& os) {
  const TraceSpan& s = *node.span;
  const double range = t1 > t0 ? t1 - t0 : 1.0;
  int lo = static_cast<int>((s.start - t0) / range * width);
  int hi = static_cast<int>((s.end - t0) / range * width);
  lo = std::min(std::max(lo, 0), width - 1);
  hi = std::min(std::max(hi, lo), width - 1);
  std::string bar(static_cast<std::size_t>(width), '.');
  for (int i = lo; i <= hi; ++i) {
    bar[static_cast<std::size_t>(i)] = (s.end == s.start) ? '|' : '=';
  }
  os << "  [" << bar << "] ";
  for (int i = 0; i < depth; ++i) os << "  ";
  os << s.name << " (" << s.kind;
  if (s.device >= 0) os << " dev=" << s.device;
  if (!s.tenant.empty()) os << " tenant=" << s.tenant;
  if (!s.status.empty()) os << " " << s.status;
  os << ") " << fmt_time(s.start);
  if (s.end != s.start) os << ".." << fmt_time(s.end);
  if (!s.detail.empty()) os << " " << s.detail;
  os << "\n";
  for (const TraceNode& c : node.children) {
    render_node(c, depth + 1, t0, t1, width, os);
  }
}

void span_extent(const TraceNode& node, double* t0, double* t1) {
  *t0 = std::min(*t0, node.span->start);
  *t1 = std::max(*t1, node.span->end);
  for (const TraceNode& c : node.children) span_extent(c, t0, t1);
}

std::size_t count_nodes(const TraceNode& node) {
  std::size_t n = 1;
  for (const TraceNode& c : node.children) n += count_nodes(c);
  return n;
}

}  // namespace

std::string render_waterfall(const TraceReport& report, int width) {
  if (width < 8) width = 8;
  std::ostringstream os;
  const std::vector<TraceTree> trees = assemble_traces(report);
  for (const TraceTree& tree : trees) {
    double t0 = 1e300;
    double t1 = -1e300;
    std::size_t spans = 0;
    for (const TraceNode& r : tree.roots) {
      span_extent(r, &t0, &t1);
      spans += count_nodes(r);
    }
    if (t1 < t0) t0 = t1 = 0.0;
    os << "trace " << format_trace_id(tree.trace_id) << " spans=" << spans
       << " window=" << fmt_time(t0) << ".." << fmt_time(t1);
    if (tree.missing_parents != 0) {
      os << " missing_parents=" << tree.missing_parents;
    }
    os << "\n";
    for (const TraceNode& r : tree.roots) {
      render_node(r, 0, t0, t1, width, os);
    }
  }
  if (trees.empty()) os << "no spans\n";
  return os.str();
}

namespace {

std::string span_path(const std::string& prefix, const TraceSpan& s) {
  return prefix + "/" + s.name;
}

/// Structural identity of one span, excluding anything time-derived.
std::string span_signature(const TraceSpan& s) {
  std::ostringstream os;
  os << s.name << "|" << s.kind << "|dev=" << s.device << "|tenant="
     << s.tenant << "|status=" << s.status;
  return os.str();
}

void diff_nodes(const std::string& path, const TraceNode& a,
                const TraceNode& b, std::size_t max_differences,
                std::vector<std::string>* out) {
  if (out->size() >= max_differences) return;
  const std::string sa = span_signature(*a.span);
  const std::string sb = span_signature(*b.span);
  if (sa != sb) {
    out->push_back(path + ": span mismatch: " + sa + " vs " + sb);
    return;
  }
  if (a.children.size() != b.children.size()) {
    std::ostringstream os;
    os << path << ": child count " << a.children.size() << " vs "
       << b.children.size();
    out->push_back(os.str());
    return;
  }
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    diff_nodes(span_path(path, *a.children[i].span), a.children[i],
               b.children[i], max_differences, out);
  }
}

}  // namespace

TraceDiffResult diff_traces(const TraceReport& a, const TraceReport& b,
                            std::size_t max_differences) {
  TraceDiffResult r;
  const std::vector<TraceTree> ta = assemble_traces(a);
  const std::vector<TraceTree> tb = assemble_traces(b);
  std::map<TraceId, const TraceTree*> ma;
  std::map<TraceId, const TraceTree*> mb;
  for (const TraceTree& t : ta) ma.emplace(t.trace_id, &t);
  for (const TraceTree& t : tb) mb.emplace(t.trace_id, &t);
  for (const auto& [id, t] : ma) {
    if (r.differences.size() >= max_differences) break;
    auto it = mb.find(id);
    if (it == mb.end()) {
      r.differences.push_back("trace " + format_trace_id(id) +
                              " only in first file");
      continue;
    }
    const TraceTree& u = *it->second;
    if (t->roots.size() != u.roots.size()) {
      std::ostringstream os;
      os << "trace " << format_trace_id(id) << ": root count "
         << t->roots.size() << " vs " << u.roots.size();
      r.differences.push_back(os.str());
      continue;
    }
    for (std::size_t i = 0; i < t->roots.size(); ++i) {
      diff_nodes(format_trace_id(id) + "/" + t->roots[i].span->name,
                 t->roots[i], u.roots[i], max_differences,
                 &r.differences);
    }
  }
  for (const auto& [id, t] : mb) {
    (void)t;
    if (r.differences.size() >= max_differences) break;
    if (ma.count(id) == 0) {
      r.differences.push_back("trace " + format_trace_id(id) +
                              " only in second file");
    }
  }
  return r;
}

}  // namespace ftla::obs
