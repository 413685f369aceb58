#include "sim/machine.hpp"

#include <algorithm>
#include <string>

#include "sim/device_matrix.hpp"

namespace ftla::sim {

DeviceLostError::DeviceLostError(int device, double at)
    : std::runtime_error("device " + std::to_string(device) +
                         " lost at virtual t=" + std::to_string(at)),
      device_(device),
      at_(at) {}

std::int64_t SimStats::total_gpu_flops() const {
  std::int64_t total = 0;
  for (const auto& [cls, s] : gpu) total += s.flops;
  return total;
}

// ----- DeviceBuffer --------------------------------------------------

double* DeviceBuffer::data() {
  FTLA_CHECK_MSG(machine_ != nullptr && machine_->numeric(),
                 "device data is only addressable in Numeric mode");
  return storage_.data();
}

const double* DeviceBuffer::data() const {
  FTLA_CHECK_MSG(machine_ != nullptr && machine_->numeric(),
                 "device data is only addressable in Numeric mode");
  return storage_.data();
}

MatrixView<double> DeviceBuffer::view(std::int64_t off, int rows, int cols,
                                      int ld) {
  FTLA_CHECK(off >= 0 &&
             off + static_cast<std::int64_t>(ld) * (cols - 1) + rows <=
                 count_);
  return MatrixView<double>(data() + off, rows, cols, ld);
}

ConstMatrixView<double> DeviceBuffer::view(std::int64_t off, int rows,
                                           int cols, int ld) const {
  FTLA_CHECK(off >= 0 &&
             off + static_cast<std::int64_t>(ld) * (cols - 1) + rows <=
                 count_);
  return ConstMatrixView<double>(data() + off, rows, cols, ld);
}

void DeviceBuffer::move_from(DeviceBuffer& other) noexcept {
  machine_ = other.machine_;
  storage_ = std::move(other.storage_);
  count_ = other.count_;
  other.machine_ = nullptr;
  other.count_ = 0;
}

void DeviceBuffer::release() noexcept {
  if (machine_ != nullptr) {
    machine_->device_bytes_in_use_ -= bytes();
    machine_ = nullptr;
    storage_.clear();
    count_ = 0;
  }
}

// ----- Machine --------------------------------------------------------

Machine::Machine(MachineProfile profile, ExecutionMode mode)
    : profile_(std::move(profile)),
      mode_(mode),
      min_units_(0),
      gpu_pool_(profile_.sm_count + profile_.coexec_spare_units) {
  FTLA_CHECK(profile_.max_concurrent_kernels > 0);
  min_units_ = (profile_.sm_count + profile_.max_concurrent_kernels - 1) /
               profile_.max_concurrent_kernels;
  for (int i = 0; i < kKernelClasses; ++i) {
    const auto c = static_cast<KernelClass>(i);
    ClassCost& k = cost(c);
    k.units = std::min(profile_.default_sm_units(c), profile_.sm_count);
    k.footprint = std::max(k.units, min_units_);
    // A class whose default request is empty only fails once a kernel
    // of it needs a rate (in price()), as it always has.
    if (k.units > 0) k.gpu_rate = profile_.gpu_rate_gflops(c, k.units) * 1e9;
    k.host_rate = profile_.cpu_peak_gflops * profile_.cpu_efficiency(c) * 1e9;
  }
  streams_.push_back(StreamState{});  // stream 0 = default stream
}

void Machine::add_stall(double from, double to) {
  FTLA_CHECK(from >= 0.0 && to >= from);
  const auto w = std::make_pair(from, to);
  stalls_.insert(std::upper_bound(stalls_.begin(), stalls_.end(), w), w);
}

void Machine::tick() {
  // Windows are sorted by start, so chained stalls apply in one pass.
  for (const auto& [from, to] : stalls_) {
    if (host_time_ >= from && host_time_ < to) host_time_ = to;
  }
  if (host_time_ >= fail_at_) throw DeviceLostError(device_id_, fail_at_);
}

double Machine::reserve_link(double earliest, double dur) {
  if (host_link_ == nullptr) return earliest;
  return host_link_->allocate(earliest, dur, 1);
}

DeviceBuffer Machine::alloc(std::int64_t count) {
  tick();
  FTLA_CHECK(count >= 0);
  DeviceBuffer buf;
  buf.machine_ = this;
  buf.count_ = count;
  if (numeric()) {
    buf.storage_.assign(static_cast<std::size_t>(count), 0.0);
  }
  device_bytes_in_use_ += buf.bytes();
  FTLA_CHECK_MSG(device_bytes_in_use_ <= profile_.gpu_memory_bytes,
                 "simulated device memory exhausted");
  return buf;
}

StreamId Machine::create_stream() {
  tick();
  streams_.push_back(StreamState{});
  return static_cast<StreamId>(streams_.size() - 1);
}

EventId Machine::record_event(StreamId s) {
  tick();
  FTLA_CHECK(s >= 0 && s < stream_count());
  host_time_ += profile_.host_call_overhead_s;
  events_.push_back(std::max(streams_[s].last_end, host_time_));
  return static_cast<EventId>(events_.size() - 1);
}

void Machine::stream_wait_event(StreamId s, EventId e) {
  tick();
  FTLA_CHECK(s >= 0 && s < stream_count());
  FTLA_CHECK(e >= 0 && e < static_cast<EventId>(events_.size()));
  host_time_ += profile_.host_call_overhead_s;
  streams_[s].last_end = std::max(streams_[s].last_end, events_[e]);
}

void Machine::sync_stream(StreamId s) {
  tick();
  FTLA_CHECK(s >= 0 && s < stream_count());
  host_time_ = std::max(host_time_, streams_[s].last_end);
  note_sync("sync_stream");
}

void Machine::sync_event(EventId e) {
  tick();
  FTLA_CHECK(e >= 0 && e < static_cast<EventId>(events_.size()));
  host_time_ = std::max(host_time_, events_[e]);
  note_sync("sync_event");
}

void Machine::sync_all() {
  tick();
  double t = host_time_;
  for (const auto& st : streams_) t = std::max(t, st.last_end);
  t = std::max({t, h2d_free_, d2h_free_, gpu_pool_.last_end()});
  host_time_ = t;
  note_sync("sync_all");
}

StreamId Machine::least_loaded_stream(std::span<const StreamId> pool) const {
  FTLA_CHECK(!pool.empty());
  StreamId best = pool.front();
  FTLA_CHECK(best >= 0 && best < stream_count());
  double best_end = streams_[static_cast<std::size_t>(best)].last_end;
  for (const StreamId s : pool.subspan(1)) {
    FTLA_CHECK(s >= 0 && s < stream_count());
    const double end = streams_[static_cast<std::size_t>(s)].last_end;
    if (end < best_end) {
      best = s;
      best_end = end;
    }
  }
  return best;
}

Machine::KernelPrice Machine::price(const KernelDesc& d) const {
  // Duration comes from the units the kernel actually computes with; the
  // *footprint* may be inflated so that at most max_concurrent_kernels
  // ever co-run (a scheduling constraint, not a speedup).
  const ClassCost& k = costs_[static_cast<std::size_t>(d.cls)];
  KernelPrice p{k.units, k.footprint, profile_.kernel_launch_overhead_s};
  if (d.sm_units > 0) {
    p.units = std::min(d.sm_units, profile_.sm_count);
    p.footprint = std::max(p.units, min_units_);
  }
  if (d.flops > 0) {
    // An explicit request, or an empty default one (which the profile
    // refuses), has no cached rate.
    const double rate = d.sm_units > 0 || p.units <= 0
                            ? profile_.gpu_rate_gflops(d.cls, p.units) * 1e9
                            : k.gpu_rate;
    p.seconds += static_cast<double>(d.flops) / rate;
  }
  return p;
}

ClassStats& Machine::gpu_stats(KernelClass c) {
  ClassStats*& slot = cost(c).gpu;
  if (slot == nullptr) slot = &stats_.gpu[c];
  return *slot;
}

ClassStats& Machine::host_stats(KernelClass c) {
  ClassStats*& slot = cost(c).host;
  if (slot == nullptr) slot = &stats_.host[c];
  return *slot;
}

void Machine::note_span(obs::EventKind kind, const char* name,
                        KernelClass cls, int lane, double start, double end,
                        std::int64_t flops, std::int64_t bytes, int units) {
  if (spans_ != nullptr) {
    spans_->record(kind, name, to_string(cls), lane, start, end, flops,
                   bytes, units);
  }
  if (sink_ == nullptr) return;
  obs::Event e;
  e.kind = kind;
  e.time = start;
  e.end = end;
  e.lane = lane;
  e.name = name;
  e.flops = flops;
  e.bytes = bytes;
  e.units = units;
  sink_->post(e);
}

void Machine::note_sync(const char* name) {
  if (sink_ == nullptr) return;
  obs::Event e;
  e.kind = obs::EventKind::Sync;
  e.time = host_time_;
  e.end = host_time_;
  e.lane = kHostLane;
  e.name = name;
  sink_->post(e);
}

void Machine::launch(StreamId s, const KernelDesc& d, Body body) {
  tick();
  FTLA_CHECK(s >= 0 && s < stream_count());
  if (numeric() && body) body();

  host_time_ += profile_.host_call_overhead_s;
  gpu_pool_.prune(std::min(host_time_, gpu_pool_.last_end()));
  const KernelPrice p = price(d);
  const double earliest = std::max(host_time_, streams_[s].last_end);
  const double start = gpu_pool_.allocate(earliest, p.seconds, p.footprint);
  const double end = start + p.seconds;
  streams_[s].last_end = end;

  ClassStats& cs = gpu_stats(d.cls);
  ++cs.count;
  cs.flops += d.flops;
  cs.busy_seconds += p.seconds;
  note_span(obs::EventKind::Kernel, d.name, d.cls, s, start, end, d.flops, 0,
            p.units);
}

void Machine::host_compute(const KernelDesc& d, Body body) {
  tick();
  if (numeric() && body) body();
  const double dur =
      d.flops > 0 ? static_cast<double>(d.flops) / cost(d.cls).host_rate
                  : 0.0;
  const double start = host_time_;
  host_time_ += dur;
  stats_.host_busy_seconds += dur;
  ClassStats& cs = host_stats(d.cls);
  ++cs.count;
  cs.flops += d.flops;
  cs.busy_seconds += dur;
  note_span(obs::EventKind::HostTask, d.name, d.cls, kHostLane, start,
            host_time_, d.flops, 0, 0);
}

void Machine::host_advance(double seconds) {
  tick();
  FTLA_CHECK(seconds >= 0.0);
  host_time_ += seconds;
}

void Machine::memcpy_h2d(DeviceBuffer& dst, std::int64_t dst_off,
                         const double* src, std::int64_t n, StreamId s,
                         bool blocking) {
  copy<true>("h2d", /*flat=*/true, dst, dst_off, static_cast<int>(n), src,
             static_cast<int>(n), n, 1, s, blocking);
}

void Machine::memcpy_d2h(double* dst, const DeviceBuffer& src,
                         std::int64_t src_off, std::int64_t n, StreamId s,
                         bool blocking) {
  copy<false>("d2h", /*flat=*/true, src, src_off, static_cast<int>(n), dst,
              static_cast<int>(n), n, 1, s, blocking);
}

void Machine::memcpy_h2d_2d(const DMat& dst, const double* src, int src_ld,
                            StreamId s, bool blocking) {
  copy<true>("h2d_2d", /*flat=*/false, *dst.buf, dst.off, dst.ld, src,
             src_ld, dst.rows, dst.cols, s, blocking);
}

void Machine::memcpy_d2h_2d(double* dst, int dst_ld, const DConstMat& src,
                            StreamId s, bool blocking) {
  copy<false>("d2h_2d", /*flat=*/false, *src.buf, src.off, src.ld, dst,
              dst_ld, src.rows, src.cols, s, blocking);
}

template <bool kH2d, class Dev, class Host>
void Machine::copy(const char* name, bool flat, Dev& dev,
                   std::int64_t dev_off, int dev_ld, Host* host, int host_ld,
                   std::int64_t rows, int cols, StreamId s, bool blocking) {
  tick();
  FTLA_CHECK(s >= 0 && s < stream_count());
  if (!flat) {
    FTLA_CHECK(rows >= 0 && cols >= 0 && dev_ld >= rows && host_ld >= rows);
    if (rows == 0 || cols == 0) return;  // an empty 2-D copy is free
  }
  FTLA_CHECK(dev_off >= 0 &&
             dev_off + static_cast<std::int64_t>(cols - 1) * dev_ld + rows <=
                 dev.count());
  if (numeric()) {
    for (int j = 0; j < cols; ++j) {
      const std::int64_t d = dev_off + static_cast<std::int64_t>(j) * dev_ld;
      const std::int64_t h = static_cast<std::int64_t>(j) * host_ld;
      if constexpr (kH2d) {
        std::copy(host + h, host + h + rows, dev.data() + d);
      } else {
        std::copy(dev.data() + d, dev.data() + d + rows, host + h);
      }
    }
  }

  host_time_ += profile_.host_call_overhead_s;
  const double bytes = static_cast<double>(rows) * cols * sizeof(double);
  const double bandwidth_gbs =
      kH2d ? profile_.h2d_bandwidth_gbs : profile_.d2h_bandwidth_gbs;
  const double dur =
      profile_.transfer_latency_s + bytes / (bandwidth_gbs * 1e9);
  double& engine_free = kH2d ? h2d_free_ : d2h_free_;
  const double earliest =
      std::max({host_time_, streams_[s].last_end, engine_free});
  const double start = reserve_link(earliest, dur);
  const double end = start + dur;
  engine_free = end;
  streams_[s].last_end = end;
  const std::int64_t moved = rows * cols * 8;
  ++(kH2d ? stats_.h2d_count : stats_.d2h_count);
  (kH2d ? stats_.h2d_bytes : stats_.d2h_bytes) += moved;
  (kH2d ? stats_.h2d_seconds : stats_.d2h_seconds) += dur;
  note_span(obs::EventKind::Copy, name, KernelClass::Other,
            kH2d ? kH2dLane : kD2hLane, start, end, 0, moved, 0);
  if (blocking) host_time_ = std::max(host_time_, end);
  // Every non-empty numeric copy gets a transfer ordinal.
  if (numeric() && rows * cols > 0) {
    if constexpr (kH2d) {
      note_transfer(name, true, dev.data() + dev_off, static_cast<int>(rows),
                    cols, dev_ld, dev_off, start, end, s);
    } else {
      note_transfer(name, false, host, static_cast<int>(rows), cols, host_ld,
                    -1, start, end, s);
    }
  }
}

void Machine::memcpy_d2d(DeviceBuffer& dst, std::int64_t dst_off,
                         const DeviceBuffer& src, std::int64_t src_off,
                         std::int64_t n, StreamId s) {
  tick();
  FTLA_CHECK(s >= 0 && s < stream_count());
  FTLA_CHECK(dst_off >= 0 && dst_off + n <= dst.count());
  FTLA_CHECK(src_off >= 0 && src_off + n <= src.count());
  // An on-device DMA: bandwidth-priced, occupies one SM-equivalent of
  // the pool for its duration (copies do steal some memory bandwidth).
  if (numeric()) {
    const double* p = src.data() + src_off;
    std::copy(p, p + n, dst.data() + dst_off);
  }
  host_time_ += profile_.host_call_overhead_s;
  gpu_pool_.prune(std::min(host_time_, gpu_pool_.last_end()));
  const double bytes = static_cast<double>(n) * sizeof(double);
  const double dur = profile_.kernel_launch_overhead_s +
                     bytes / (profile_.d2d_bandwidth_gbs * 1e9);
  const double earliest = std::max(host_time_, streams_[s].last_end);
  const double start = gpu_pool_.allocate(earliest, dur, 1);
  streams_[s].last_end = start + dur;
  ClassStats& cs = gpu_stats(KernelClass::Memset);
  ++cs.count;
  cs.busy_seconds += dur;
  note_span(obs::EventKind::Copy, "d2d", KernelClass::Memset, s, start,
            start + dur, 0, n * static_cast<std::int64_t>(sizeof(double)), 1);
}

void Machine::note_transfer(const char* name, bool h2d, double* data,
                            int rows, int cols, int ld, std::int64_t dev_off,
                            double start, double end, StreamId s) {
  // Every numeric copy gets an ordinal, hook or not, so a recorded
  // transfer fault replays against the same copy in a later run.
  const std::int64_t seq = transfer_seq_++;
  if (!transfer_hook_) return;
  TransferCtx ctx;
  ctx.name = name;
  ctx.h2d = h2d;
  ctx.data = data;
  ctx.rows = rows;
  ctx.cols = cols;
  ctx.ld = ld;
  ctx.dev_off = dev_off;
  ctx.seq = seq;
  ctx.start = start;
  ctx.end = end;
  ctx.stream = s;
  ctx.armed = h2d ? h2d_armed_ : d2h_armed_;
  transfer_hook_(ctx);
}

double Machine::makespan() const noexcept {
  double t = host_time_;
  for (const auto& st : streams_) t = std::max(t, st.last_end);
  return std::max({t, h2d_free_, d2h_free_, gpu_pool_.last_end()});
}

double Machine::gpu_utilization() const {
  const double span = makespan();
  if (span <= 0.0) return 0.0;
  const int capacity = profile_.sm_count + profile_.coexec_spare_units;
  return gpu_pool_.busy_unit_seconds() / (span * capacity);
}

}  // namespace ftla::sim
