#include "sim/fleet.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ftla::sim {

const char* to_string(DeviceState s) {
  switch (s) {
    case DeviceState::Healthy:
      return "healthy";
    case DeviceState::Degraded:
      return "degraded";
    case DeviceState::Lost:
      return "lost";
  }
  return "?";
}

Fleet::Fleet(FleetProfile profile, ExecutionMode mode)
    : profile_(std::move(profile)),
      mode_(mode),
      link_(std::max(1, profile_.link_capacity)) {
  FTLA_CHECK_MSG(profile_.devices >= 1, "a fleet needs at least one device");
  devices_.reserve(static_cast<std::size_t>(profile_.devices));
  for (int id = 0; id < profile_.devices; ++id) {
    auto m = std::make_unique<Machine>(profile_.device, mode_);
    m->set_device_id(id);
    m->set_host_link(&link_);
    devices_.push_back(std::move(m));
  }
  states_.assign(devices_.size(), DeviceState::Healthy);
  degrade_.assign(devices_.size(), 1.0);
}

Machine& Fleet::device(int id) {
  FTLA_CHECK(id >= 0 && id < size());
  return *devices_[static_cast<std::size_t>(id)];
}

const Machine& Fleet::device(int id) const {
  FTLA_CHECK(id >= 0 && id < size());
  return *devices_[static_cast<std::size_t>(id)];
}

DeviceState Fleet::state(int id) const {
  FTLA_CHECK(id >= 0 && id < size());
  return states_[static_cast<std::size_t>(id)];
}

int Fleet::usable_count() const {
  int n = 0;
  for (const DeviceState s : states_) n += (s != DeviceState::Lost) ? 1 : 0;
  return n;
}

double Fleet::degrade_factor(int id) const {
  FTLA_CHECK(id >= 0 && id < size());
  return degrade_[static_cast<std::size_t>(id)];
}

void Fleet::arm_loss(int id, double at) { device(id).set_fail_at(at); }

void Fleet::arm_stall(int id, double from, double to) {
  device(id).add_stall(from, to);
}

void Fleet::mark_degraded(int id, double rate_multiplier) {
  FTLA_CHECK(id >= 0 && id < size());
  FTLA_CHECK(rate_multiplier >= 1.0);
  auto& state = states_[static_cast<std::size_t>(id)];
  if (state == DeviceState::Lost) return;
  state = DeviceState::Degraded;
  degrade_[static_cast<std::size_t>(id)] = rate_multiplier;
}

void Fleet::mark_lost(int id) {
  FTLA_CHECK(id >= 0 && id < size());
  auto& state = states_[static_cast<std::size_t>(id)];
  if (state == DeviceState::Lost) return;
  state = DeviceState::Lost;
  ++losses_;
}

double Fleet::now() const {
  double t = 0.0;
  for (const auto& m : devices_) t = std::max(t, m->host_now());
  return t;
}

void Fleet::prune_link() {
  bool any = false;
  double horizon = 0.0;
  for (const auto& m : devices_) {
    if (m->lost()) continue;
    horizon = any ? std::min(horizon, m->host_now()) : m->host_now();
    any = true;
  }
  if (any) link_.prune(horizon);
}

double Fleet::makespan() const {
  double t = 0.0;
  for (const auto& m : devices_) t = std::max(t, m->makespan());
  return t;
}

}  // namespace ftla::sim
