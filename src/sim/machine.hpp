// The heterogeneous-node simulator: a CUDA-like runtime with a virtual
// clock.
//
// Semantics mirror the CUDA features the paper's implementation relies
// on: device memory distinct from host memory, per-stream FIFO ordering,
// events, async H2D/D2H copies on dedicated copy engines, and concurrent
// kernel execution bounded by device resources (paper Opt 1).
//
// Execution model — "real math, virtual time":
//   * In ExecutionMode::Numeric every operation's `body` closure runs
//     eagerly at issue time, so numerics (and injected faults) are real.
//   * Timing is simulated: each operation is placed on a discrete-event
//     timeline using the machine profile's cost model, and benches report
//     virtual seconds. Nothing reads the wall clock.
//   * In ExecutionMode::TimingOnly bodies are skipped and device buffers
//     hold no storage, so paper-scale problem sizes (30720^2 doubles)
//     can be swept cheaply. Callers must only touch data inside bodies.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/function_ref.hpp"
#include "common/matrix.hpp"
#include "obs/event_sink.hpp"
#include "obs/span.hpp"
#include "sim/profile.hpp"
#include "sim/timeline.hpp"

namespace ftla::sim {

enum class ExecutionMode { Numeric, TimingOnly };

/// Thrown by every Machine entry point once the device's virtual clock
/// has reached its armed fail-stop instant (set_fail_at): the device is
/// gone, and no further work can be issued to it. Deliberately NOT an
/// ftla::Error — the ABFT drivers' recovery ladders catch Error to
/// rerun or roll back *on the same device*, which a lost device cannot
/// execute; this exception must unwind out of the driver to the fleet
/// layer, which owns migration (docs/fleet.md).
class DeviceLostError : public std::runtime_error {
 public:
  DeviceLostError(int device, double at);
  [[nodiscard]] int device() const noexcept { return device_; }
  /// The virtual instant the device failed.
  [[nodiscard]] double at() const noexcept { return at_; }

 private:
  int device_;
  double at_;
};

/// Static description of one unit of simulated work.
struct KernelDesc {
  /// Label with static storage (a literal or a static table entry), the
  /// rule TaskGraph task names follow: a DAG body may launch long after
  /// the code that built the graph returned. The machine copies the text
  /// only into an attached span store or event sink.
  const char* name = "";
  KernelClass cls = KernelClass::Other;
  std::int64_t flops = 0;
  /// SM units requested; 0 means the profile default for `cls`.
  int sm_units = 0;
};

using StreamId = int;
using EventId = int;

inline constexpr int kHostLane = -1;
inline constexpr int kH2dLane = -2;
inline constexpr int kD2hLane = -3;

/// In-flight copy descriptor handed to the transfer-corruption hook
/// (fault-campaign support). The hook runs after the numeric copy and
/// the timing model, so it may mutate the destination region — that is
/// "corruption on the PCIe path": the source stays intact, the data
/// arrives wrong, and no device-side verification of the source can
/// have seen it.
struct TransferCtx {
  const char* name = "";  ///< "h2d", "d2h", "h2d_2d", "d2h_2d"
  bool h2d = true;        ///< direction (false = d2h)
  double* data = nullptr;  ///< destination region, column-major
  int rows = 0;
  int cols = 0;  ///< 1 for flat copies
  int ld = 0;
  /// Destination offset into the device buffer when the destination is
  /// device memory (lets callers map to global coordinates); -1 when
  /// the destination is host memory.
  std::int64_t dev_off = -1;
  std::int64_t seq = 0;  ///< ordinal among this machine's numeric copies
  double start = 0.0;    ///< modeled transfer window
  double end = 0.0;
  StreamId stream = 0;
  bool armed = false;  ///< driver armed this direction for stochastic faults
};

using TransferHook = std::function<void(const TransferCtx&)>;

struct ClassStats {
  long long count = 0;
  std::int64_t flops = 0;
  double busy_seconds = 0.0;
};

struct SimStats {
  std::map<KernelClass, ClassStats> gpu;
  std::map<KernelClass, ClassStats> host;
  long long h2d_count = 0;
  long long d2h_count = 0;
  std::int64_t h2d_bytes = 0;
  std::int64_t d2h_bytes = 0;
  double h2d_seconds = 0.0;
  double d2h_seconds = 0.0;
  double host_busy_seconds = 0.0;

  [[nodiscard]] std::int64_t total_gpu_flops() const;
  [[nodiscard]] double total_transfer_seconds() const {
    return h2d_seconds + d2h_seconds;
  }
};

class Machine;
struct DMat;       // sim/device_matrix.hpp
struct DConstMat;  // sim/device_matrix.hpp

/// A device-memory allocation of doubles. RAII: releases its accounting
/// (and storage in Numeric mode) on destruction. Movable, not copyable.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& other) noexcept { move_from(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  ~DeviceBuffer() { release(); }

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] std::int64_t bytes() const noexcept {
    return count_ * static_cast<std::int64_t>(sizeof(double));
  }
  [[nodiscard]] bool allocated() const noexcept { return machine_ != nullptr; }

  /// Raw device pointer — only valid in Numeric mode, and by convention
  /// only touched from inside operation bodies.
  [[nodiscard]] double* data();
  [[nodiscard]] const double* data() const;

  /// Column-major view of [off, off + rows*cols) with leading dim `ld`.
  [[nodiscard]] MatrixView<double> view(std::int64_t off, int rows, int cols,
                                        int ld);
  [[nodiscard]] ConstMatrixView<double> view(std::int64_t off, int rows,
                                             int cols, int ld) const;

 private:
  friend class Machine;
  void move_from(DeviceBuffer& other) noexcept;
  void release() noexcept;

  Machine* machine_ = nullptr;
  std::vector<double> storage_;
  std::int64_t count_ = 0;
};

/// One simulated CPU+GPU node. Not copyable: it caches pointers into
/// its own stats, and device buffers point back at it.
class Machine {
 public:
  Machine(MachineProfile profile, ExecutionMode mode);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] ExecutionMode mode() const noexcept { return mode_; }
  /// True when numeric payloads execute (bodies run, buffers are real).
  [[nodiscard]] bool numeric() const noexcept {
    return mode_ == ExecutionMode::Numeric;
  }

  // ----- device memory ---------------------------------------------
  /// Allocates `count` doubles of device memory (zero-initialized, as
  /// the drivers rely on deterministic contents).
  DeviceBuffer alloc(std::int64_t count);
  [[nodiscard]] std::int64_t device_bytes_in_use() const noexcept {
    return device_bytes_in_use_;
  }

  // ----- streams and events ----------------------------------------
  [[nodiscard]] StreamId default_stream() const noexcept { return 0; }
  StreamId create_stream();
  [[nodiscard]] int stream_count() const noexcept {
    return static_cast<int>(streams_.size());
  }
  /// Virtual time at which everything so far issued on `s` completes.
  /// Free to read (no host-call overhead): the runtime's stream
  /// executor uses it to pick the least-loaded stream for a task.
  [[nodiscard]] double stream_end(StreamId s) const {
    return streams_.at(static_cast<std::size_t>(s)).last_end;
  }
  /// The stream of `pool` whose issued work completes first, the
  /// earliest in `pool` on a tie; free to read, like stream_end. The
  /// runtime's stream executor puts each Device task there.
  [[nodiscard]] StreamId least_loaded_stream(
      std::span<const StreamId> pool) const;
  EventId record_event(StreamId s);
  void stream_wait_event(StreamId s, EventId e);
  void sync_stream(StreamId s);
  void sync_event(EventId e);
  /// cudaDeviceSynchronize(): joins the host with all device work.
  void sync_all();

  // ----- work -------------------------------------------------------
  /// Body contract for launch() and host_compute(): `body` performs the
  /// numeric payload. In Numeric mode it runs exactly once, before the
  /// call returns; in TimingOnly mode it never runs. An empty body (`{}`
  /// or an empty std::function) is skipped. The machine never stores
  /// it, so it is taken by non-owning reference and a capturing lambda
  /// costs no allocation.
  using Body = FunctionRef<void()>;

  /// Launches a kernel asynchronously on stream `s` (see Body).
  void launch(StreamId s, const KernelDesc& d, Body body);

  /// Runs work on the host CPU (see Body), advancing the host clock by
  /// the modeled duration. Host work implicitly serializes with other
  /// host work.
  void host_compute(const KernelDesc& d, Body body);

  /// Advances the host clock without doing work (driver-logic cost).
  void host_advance(double seconds);

  /// Async copy host -> device on the H2D engine, ordered within `s`.
  void memcpy_h2d(DeviceBuffer& dst, std::int64_t dst_off, const double* src,
                  std::int64_t n, StreamId s, bool blocking = false);
  /// Async copy device -> host on the D2H engine, ordered within `s`.
  void memcpy_d2h(double* dst, const DeviceBuffer& src, std::int64_t src_off,
                  std::int64_t n, StreamId s, bool blocking = false);
  /// Strided 2-D copies (cudaMemcpy2D equivalents) between a device
  /// region — a block or panel of a larger column-major matrix — and a
  /// host block of the same shape with leading dimension `src_ld` /
  /// `dst_ld`. An empty region copies nothing and costs nothing.
  void memcpy_h2d_2d(const DMat& dst, const double* src, int src_ld,
                     StreamId s, bool blocking = false);
  void memcpy_d2h_2d(double* dst, int dst_ld, const DConstMat& src,
                     StreamId s, bool blocking = false);

  /// Device-to-device copy (modeled as a 1-SM copy kernel).
  void memcpy_d2d(DeviceBuffer& dst, std::int64_t dst_off,
                  const DeviceBuffer& src, std::int64_t src_off,
                  std::int64_t n, StreamId s);

  // ----- clocks and reporting ---------------------------------------
  [[nodiscard]] double host_now() const noexcept { return host_time_; }
  /// Completion time of everything issued so far (host + GPU + copies).
  [[nodiscard]] double makespan() const noexcept;
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double gpu_busy_sm_seconds() const noexcept {
    return gpu_pool_.busy_unit_seconds();
  }
  /// Mean GPU SM-pool utilization over [0, makespan()].
  [[nodiscard]] double gpu_utilization() const;

  /// Attaches a structured-event sink (not owned; nullptr detaches).
  /// Every kernel, host task, copy and sync is then posted as an
  /// obs::Event with stream / SM-unit attribution.
  void set_event_sink(obs::EventSink* sink) { sink_ = sink; }
  [[nodiscard]] obs::EventSink* event_sink() const noexcept { return sink_; }

  /// Attaches a span store (not owned; nullptr detaches). Every kernel,
  /// host task and copy is then recorded as an obs::Span with its
  /// virtual window, lane, kernel class and modeled cost; the attached
  /// store stamps ABFT phase and iteration (sim/profiler.hpp). It is the
  /// machine's only record of what ran: the Chrome trace, the trace
  /// summary, the occupancy series and the profile all read it.
  void set_span_store(obs::SpanStore* spans) { spans_ = spans; }
  [[nodiscard]] obs::SpanStore* span_store() const noexcept { return spans_; }

  // ----- transfer-fault hook ----------------------------------------
  /// Attaches the transfer-corruption hook (fault campaigns). Called in
  /// Numeric mode after every non-empty H2D/D2H copy with a TransferCtx
  /// describing the landed data; the hook may corrupt it in place.
  /// Copies are numbered (`TransferCtx::seq`) whether or not a hook is
  /// attached, so replays strike the same copy ordinal.
  void set_transfer_hook(TransferHook hook) {
    transfer_hook_ = std::move(hook);
  }
  /// Per-direction arming, toggled by the drivers to scope *stochastic*
  /// transfer faults to copies the fault model covers (e.g. everything
  /// between checksum encode and the final download). The hook itself
  /// still runs on unarmed copies — planned faults replay anywhere —
  /// with TransferCtx::armed = false.
  void set_transfer_faults_armed(bool h2d, bool d2h) {
    h2d_armed_ = h2d;
    d2h_armed_ = d2h;
  }
  [[nodiscard]] bool h2d_faults_armed() const noexcept { return h2d_armed_; }
  [[nodiscard]] bool d2h_faults_armed() const noexcept { return d2h_armed_; }
  /// Ordinal the next numeric copy will get.
  [[nodiscard]] std::int64_t transfer_seq() const noexcept {
    return transfer_seq_;
  }

  // ----- fleet integration (device faults + shared interconnect) -----
  /// Labels this machine inside a fleet (error messages, telemetry).
  void set_device_id(int id) noexcept { device_id_ = id; }
  [[nodiscard]] int device_id() const noexcept { return device_id_; }

  /// Arms a fail-stop device loss: the first operation issued at or
  /// after virtual instant `t` throws DeviceLostError. Work issued
  /// strictly before `t` completes — in-flight kernels are not clawed
  /// back, matching a host-observed device loss.
  void set_fail_at(double t) noexcept { fail_at_ = t; }
  [[nodiscard]] double fail_at() const noexcept { return fail_at_; }
  /// True once the virtual clock has reached the armed loss instant.
  [[nodiscard]] bool lost() const noexcept { return host_time_ >= fail_at_; }

  /// Adds a transient stall window [from, to): any operation issued
  /// inside the window is held until `to` (a driver/runtime hang, not a
  /// loss — no exception, only time).
  void add_stall(double from, double to);

  /// Attaches the fleet's shared host-interconnect timeline (not owned;
  /// nullptr detaches). When set, every H2D/D2H copy reserves one unit
  /// on it, so transfers of fleet siblings contend for the shared link
  /// in addition to this device's own copy engines.
  void set_host_link(ResourceTimeline* link) noexcept { host_link_ = link; }
  [[nodiscard]] ResourceTimeline* host_link() const noexcept {
    return host_link_;
  }

 private:
  friend class DeviceBuffer;

  struct StreamState {
    double last_end = 0.0;
  };

  /// What one class costs at its default SM request, fixed at
  /// construction because the profile never changes, plus the class's
  /// stats entries (made on first use, so stats list only classes that
  /// ran; std::map entries never move).
  struct ClassCost {
    int units = 0;          ///< SMs a kernel computes with
    int footprint = 0;      ///< SMs it reserves in the pool
    double gpu_rate = 0.0;  ///< flop/s on `units` SMs
    double host_rate = 0.0; ///< flop/s as host work
    ClassStats* gpu = nullptr;
    ClassStats* host = nullptr;
  };
  struct KernelPrice {
    int units;
    int footprint;
    double seconds;
  };

  [[nodiscard]] ClassCost& cost(KernelClass c) {
    return costs_[static_cast<std::size_t>(c)];
  }
  /// Units, footprint and duration of kernel `d` on the GPU.
  [[nodiscard]] KernelPrice price(const KernelDesc& d) const;
  ClassStats& gpu_stats(KernelClass c);
  ClassStats& host_stats(KernelClass c);
  /// Device-fault gate, run at the entry of every clock-advancing
  /// operation: applies pending stall windows to the host clock, then
  /// throws DeviceLostError if the clock has reached the armed loss.
  void tick();
  /// The one H2D (`kH2d`) or D2H copy behind the four public forms:
  /// `rows` x `cols` column-major elements between `dev` at `dev_off`
  /// (leading dimension `dev_ld`) and `host` (`host_ld`). It moves the
  /// data, prices the window on the direction's engine and the host
  /// link, counts stats, records the span `name` and hands a non-empty
  /// numeric copy to the transfer hook. A `flat` copy is priced even
  /// when empty; an empty 2-D copy returns before any of it.
  template <bool kH2d, class Dev, class Host>
  void copy(const char* name, bool flat, Dev& dev, std::int64_t dev_off,
            int dev_ld, Host* host, int host_ld, std::int64_t rows, int cols,
            StreamId s, bool blocking);
  /// Reserves the transfer window [earliest, +dur) on this device's
  /// copy engine and, when attached, on the fleet's shared host link;
  /// returns the contention-resolved start time.
  double reserve_link(double earliest, double dur);
  void note_transfer(const char* name, bool h2d, double* data, int rows,
                     int cols, int ld, std::int64_t dev_off, double start,
                     double end, StreamId s);
  void note_span(obs::EventKind kind, const char* name, KernelClass cls,
                 int lane, double start, double end, std::int64_t flops,
                 std::int64_t bytes, int units);
  void note_sync(const char* name);

  MachineProfile profile_;
  ExecutionMode mode_;
  /// Smallest footprint: at most max_concurrent_kernels ever co-run.
  int min_units_;
  std::array<ClassCost, kKernelClasses> costs_{};
  double host_time_ = 0.0;
  ResourceTimeline gpu_pool_;
  double h2d_free_ = 0.0;
  double d2h_free_ = 0.0;
  std::vector<StreamState> streams_;
  std::vector<double> events_;
  std::int64_t device_bytes_in_use_ = 0;
  SimStats stats_;
  obs::EventSink* sink_ = nullptr;
  obs::SpanStore* spans_ = nullptr;
  TransferHook transfer_hook_;
  bool h2d_armed_ = false;
  bool d2h_armed_ = false;
  std::int64_t transfer_seq_ = 0;
  int device_id_ = 0;
  double fail_at_ = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> stalls_;  ///< sorted by start
  ResourceTimeline* host_link_ = nullptr;
};

/// Scoped (re)arming of transfer faults: restores the previous arming on
/// destruction, so drivers stay exception-safe when a verification
/// throws mid-factorization.
class TransferArmGuard {
 public:
  TransferArmGuard(Machine& m, bool h2d, bool d2h)
      : m_(m),
        prev_h2d_(m.h2d_faults_armed()),
        prev_d2h_(m.d2h_faults_armed()) {
    m_.set_transfer_faults_armed(h2d, d2h);
  }
  TransferArmGuard(const TransferArmGuard&) = delete;
  TransferArmGuard& operator=(const TransferArmGuard&) = delete;
  ~TransferArmGuard() { m_.set_transfer_faults_armed(prev_h2d_, prev_d2h_); }

 private:
  Machine& m_;
  bool prev_h2d_;
  bool prev_d2h_;
};

}  // namespace ftla::sim
