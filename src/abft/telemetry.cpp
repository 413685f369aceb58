#include "abft/telemetry.hpp"

#include <string>

namespace ftla::abft {

namespace {

/// Metric name for a scheduled-verification counter, one per op; kept in
/// lockstep with VerificationCounters so the export reconciles exactly.
const char* verify_counter_name(fault::Op op) {
  switch (op) {
    case fault::Op::Potf2: return "abft.verify.potf2_blocks";
    case fault::Op::Trsm: return "abft.verify.trsm_blocks";
    case fault::Op::Syrk: return "abft.verify.syrk_blocks";
    case fault::Op::Gemm: return "abft.verify.gemm_blocks";
  }
  return "abft.verify.other_blocks";
}

}  // namespace

Telemetry::Telemetry(sim::Machine& m, obs::EventSink* sink,
                     obs::MetricsRegistry* metrics, fault::Injector* injector,
                     obs::SpanStore* profile,
                     obs::TimeSeriesStore* timeseries)
    : m_(m), sink_(sink), metrics_(metrics), injector_(injector),
      profile_(profile), timeseries_(timeseries) {
  // Injection stamps and detection matching are fault accounting, not
  // observation: wire them whenever an injector is passed.
  if (injector_ != nullptr) {
    injector_->set_event_sink(sink_);
    injector_->set_clock([&machine = m_] { return machine.host_now(); });
  }
}

void Telemetry::verify_scheduled(fault::Op attr, std::size_t blocks) {
  common::MutexLock lk(mu_);
  if (metrics_ != nullptr && blocks > 0) {
    metrics_->add_counter(verify_counter_name(attr),
                          static_cast<long long>(blocks));
  }
}

void Telemetry::verify_skipped(fault::Op attr, std::size_t blocks,
                               int iteration) {
  if (blocks == 0) return;
  common::MutexLock lk(mu_);
  if (metrics_ != nullptr) {
    metrics_->add_counter("abft.verify.skipped_blocks",
                          static_cast<long long>(blocks));
  }
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::VerifySkip;
    e.time = e.end = m_.host_now();
    e.lane = sim::kHostLane;
    e.name = "verify_skip";
    e.op = fault::to_string(attr);
    e.iteration = iteration;
    e.units = static_cast<int>(blocks);
    sink_->post(e);
  }
}

std::int64_t Telemetry::match_injection(int row0, int rows, int col0,
                                        int cols, int chk_row0) const {
  if (injector_ == nullptr) return -1;
  for (const auto& r : injector_->records()) {
    if (r.detected()) continue;
    const bool col_hit = r.global_col >= col0 && r.global_col < col0 + cols;
    if (!col_hit) continue;
    if (r.spec.target_checksum) {
      if (chk_row0 >= 0 && r.global_row >= chk_row0 &&
          r.global_row < chk_row0 + kChecksumRows) {
        return r.id;
      }
    } else if (r.global_row >= row0 && r.global_row < row0 + rows) {
      return r.id;
    }
  }
  return -1;
}

void Telemetry::block_verified(const VerifyOutcome& out, fault::Op attr,
                               int iteration, int block_row, int block_col,
                               std::int64_t recalc_flops, int row0, int rows,
                               int col0, int cols, int chk_row0) {
  if (!active() && injector_ == nullptr) return;
  common::MutexLock lk(mu_);
  const double now = m_.host_now();
  const bool clean = out.clean();
  if (timeseries_ != nullptr) {
    timeseries_->sample_counter("timeseries.abft.verified_blocks", now, 1.0);
    if (!clean) {
      timeseries_->sample_counter("timeseries.abft.errors_detected", now,
                                  static_cast<double>(out.errors_detected));
    }
  }
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::Verification;
    e.time = e.end = now;
    e.lane = sim::kHostLane;
    e.name = "verify";
    e.op = fault::to_string(attr);
    e.iteration = iteration;
    e.block_row = block_row;
    e.block_col = block_col;
    e.pass = clean;
    e.flops = recalc_flops;
    sink_->post(e);
  }
  if (clean) return;

  // A dirty verification: attribute it back to the latent injection whose
  // target element lies inside this block, then report the detection and
  // any repairs with that correlation id so the trace exporter can draw
  // injection -> detection -> correction flow arrows.
  const std::int64_t inj = match_injection(row0, rows, col0, cols, chk_row0);
  double latency = -1.0;
  if (inj >= 0) {
    injector_->mark_detected(inj, now);
    latency = injector_->records()[static_cast<std::size_t>(inj)]
                  .detection_latency();
    if (latency >= 0.0) {
      last_detection_latency_ = latency;
      if (timeseries_ != nullptr) {
        timeseries_->sample_gauge("timeseries.abft.detection_latency_s",
                                  now, latency);
      }
    }
  }
  if (metrics_ != nullptr) {
    metrics_->add_counter("abft.errors_detected", out.errors_detected);
    metrics_->add_counter("abft.errors_corrected", out.errors_corrected);
    metrics_->add_counter("abft.checksum_repairs", out.checksum_repairs);
    if (out.uncorrectable) {
      metrics_->add_counter("abft.uncorrectable_verifications", 1);
    }
    if (inj >= 0) {
      metrics_->add_counter("abft.detections_matched", 1);
      if (latency >= 0.0) {
        metrics_->record_histogram(kDetectionLatencyMetric, latency);
      }
    } else {
      metrics_->add_counter("abft.detections_unmatched", 1);
    }
  }
  if (sink_ == nullptr) return;

  obs::Event d;
  d.kind = obs::EventKind::Detection;
  d.time = d.end = now;
  d.lane = sim::kHostLane;
  d.name = "detection";
  d.op = fault::to_string(attr);
  d.iteration = iteration;
  d.block_row = block_row;
  d.block_col = block_col;
  d.pass = !out.uncorrectable;
  d.units = out.errors_detected;
  d.correlation = inj;
  d.value = latency;
  if (out.uncorrectable) d.detail = "uncorrectable";
  sink_->post(d);

  for (const auto& c : out.corrections) {
    obs::Event e;
    e.kind = obs::EventKind::Correction;
    e.time = e.end = now;
    e.lane = sim::kHostLane;
    e.name = "correction";
    e.op = fault::to_string(attr);
    e.iteration = iteration;
    e.block_row = block_row;
    e.block_col = block_col;
    e.row = row0 + c.row;
    e.col = col0 + c.col;
    e.correlation = inj;
    e.value = c.old_value;
    e.value2 = c.new_value;
    sink_->post(e);
  }
  if (out.checksum_repairs > 0) {
    obs::Event e;
    e.kind = obs::EventKind::ChecksumRepair;
    e.time = e.end = now;
    e.lane = sim::kHostLane;
    e.name = "checksum_repair";
    e.op = fault::to_string(attr);
    e.iteration = iteration;
    e.block_row = block_row;
    e.block_col = block_col;
    e.units = out.checksum_repairs;
    e.correlation = inj;
    sink_->post(e);
  }
}

void Telemetry::placement_decided(UpdatePlacement requested,
                                  UpdatePlacement chosen, double t_pick_gpu_s,
                                  double t_pick_cpu_s) {
  common::MutexLock lk(mu_);
  if (metrics_ != nullptr) {
    metrics_->set_gauge("abft.opt2.t_pick_gpu_s", t_pick_gpu_s);
    metrics_->set_gauge("abft.opt2.t_pick_cpu_s", t_pick_cpu_s);
  }
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::Placement;
    e.time = e.end = m_.host_now();
    e.lane = sim::kHostLane;
    e.name = std::string("placement:") + to_string(chosen);
    e.op = to_string(requested);
    e.value = t_pick_gpu_s;
    e.value2 = t_pick_cpu_s;
    sink_->post(e);
  }
}

void Telemetry::checkpoint_taken(int next_iteration) {
  common::MutexLock lk(mu_);
  if (metrics_ != nullptr) metrics_->add_counter("abft.checkpoints", 1);
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::Checkpoint;
    e.time = e.end = m_.host_now();
    e.lane = sim::kHostLane;
    e.name = "checkpoint";
    e.iteration = next_iteration;
    sink_->post(e);
  }
}

void Telemetry::rollback(int to_iteration) {
  common::MutexLock lk(mu_);
  if (metrics_ != nullptr) metrics_->add_counter("abft.rollbacks", 1);
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::Rollback;
    e.time = e.end = m_.host_now();
    e.lane = sim::kHostLane;
    e.name = "rollback";
    e.iteration = to_iteration;
    e.value = last_detection_latency_;
    sink_->post(e);
  }
}

void Telemetry::rerun(int rerun_count, const char* reason) {
  common::MutexLock lk(mu_);
  if (metrics_ != nullptr) metrics_->add_counter("abft.reruns", 1);
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::Rerun;
    e.time = e.end = m_.host_now();
    e.lane = sim::kHostLane;
    e.name = "rerun";
    e.units = rerun_count;
    if (reason != nullptr) e.detail = reason;
    sink_->post(e);
  }
}

}  // namespace ftla::abft
