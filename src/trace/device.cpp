#include "trace/device.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace fedtrans {

DeviceProfile sample_device(const FleetConfig& cfg, Rng& rng) {
  DeviceProfile d;
  d.compute_macs_per_s =
      cfg.median_compute_macs_per_s * rng.lognormal(0.0, cfg.sigma_compute);
  d.bandwidth_bytes_per_s =
      cfg.median_bandwidth_bytes_per_s * rng.lognormal(0.0, cfg.sigma_bandwidth);
  d.capacity_macs = d.compute_macs_per_s * cfg.latency_budget_s;
  return d;
}

std::vector<DeviceProfile> sample_fleet(const FleetConfig& cfg) {
  FT_CHECK(cfg.num_devices > 0);
  Rng rng(cfg.seed);
  std::vector<DeviceProfile> fleet;
  fleet.reserve(static_cast<std::size_t>(cfg.num_devices));
  for (int i = 0; i < cfg.num_devices; ++i)
    fleet.push_back(sample_device(cfg, rng));
  return fleet;
}

bool always_online(const AvailabilityModel& m) {
  return m.base_online_frac >= 1.0 && m.diurnal_amplitude <= 0.0;
}

double online_probability(const AvailabilityModel& m, std::uint32_t round,
                          std::uint32_t phase) {
  FT_CHECK(m.period_rounds > 0);
  const double t =
      static_cast<double>((round + phase) % static_cast<std::uint32_t>(
                                               m.period_rounds)) /
      static_cast<double>(m.period_rounds);
  return std::clamp(
      m.base_online_frac +
          m.diurnal_amplitude * std::sin(2.0 * 3.141592653589793 * t),
      0.0, 1.0);
}

bool device_available(const AvailabilityModel& m, std::uint32_t round,
                      std::uint32_t client, std::uint32_t phase) {
  if (always_online(m)) return true;
  return hash01_from(availability_prefix(m, round), client) <
         online_probability(m, round, phase);
}

double fleet_disparity(const std::vector<DeviceProfile>& fleet) {
  FT_CHECK(!fleet.empty());
  double lo = fleet.front().compute_macs_per_s, hi = lo;
  for (const auto& d : fleet) {
    lo = std::min(lo, d.compute_macs_per_s);
    hi = std::max(hi, d.compute_macs_per_s);
  }
  return hi / lo;
}

double client_round_time_s(const DeviceProfile& dev, double model_macs,
                           int local_steps, int batch, double model_bytes) {
  FT_CHECK(dev.compute_macs_per_s > 0 && dev.bandwidth_bytes_per_s > 0);
  const double compute_s =
      3.0 * model_macs * local_steps * batch / dev.compute_macs_per_s;
  const double comm_s = 2.0 * model_bytes / dev.bandwidth_bytes_per_s;
  return compute_s + comm_s;
}

double inference_latency_ms(const DeviceProfile& dev, double model_macs) {
  return model_macs / dev.compute_macs_per_s * 1e3;
}

double transfer_time_s(const DeviceProfile& dev, double bytes) {
  FT_CHECK(dev.bandwidth_bytes_per_s > 0);
  return bytes / dev.bandwidth_bytes_per_s;
}

int most_capable_fit(const DeviceProfile& dev,
                     const std::vector<double>& model_macs) {
  int best = -1;
  double best_macs = -1.0;
  for (std::size_t i = 0; i < model_macs.size(); ++i) {
    if (model_macs[i] <= dev.capacity_macs && model_macs[i] > best_macs) {
      best = static_cast<int>(i);
      best_macs = model_macs[i];
    }
  }
  return best;
}

}  // namespace fedtrans
