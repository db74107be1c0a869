#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace fedtrans {

/// Capability profile of one edge device. Substitutes for the FedScale
/// 500k-device hardware trace the paper samples from: compute and network
/// throughput are log-normal across the fleet (the shape of the AI-Benchmark
/// smartphone survey in Fig. 1a), with a ≥29× disparity between the most and
/// least capable devices.
struct DeviceProfile {
  /// Sustained multiply-accumulate throughput (MACs/second).
  double compute_macs_per_s = 1e8;
  /// Sustained network throughput (bytes/second), up == down.
  double bandwidth_bytes_per_s = 1e5;
  /// Largest per-sample model cost (MACs) this device accepts — the paper's
  /// hardware-compatibility constraint T_c (derived from a per-inference
  /// latency budget).
  double capacity_macs = 1e6;
};

struct FleetConfig {
  int num_devices = 64;
  /// Median compute throughput; per-device values are
  /// median * LogNormal(0, sigma).
  double median_compute_macs_per_s = 2e8;
  double sigma_compute = 1.0;
  double median_bandwidth_bytes_per_s = 2e5;
  double sigma_bandwidth = 0.8;
  /// Per-inference latency budget that converts compute into a MAC
  /// capacity: capacity = compute * budget.
  double latency_budget_s = 0.004;
  std::uint64_t seed = 7;

  /// Convenience: choose median compute so the median device's capacity
  /// equals `median_capacity_macs` (used by experiment presets to place the
  /// fleet relative to a dataset's initial/maximum model sizes).
  FleetConfig& with_median_capacity(double median_capacity_macs) {
    median_compute_macs_per_s = median_capacity_macs / latency_budget_s;
    return *this;
  }
};

/// Sample a heterogeneous device fleet.
std::vector<DeviceProfile> sample_fleet(const FleetConfig& cfg);

/// Sample one device from the fleet distribution using the caller's
/// generator — the per-client building block sample_fleet iterates, and
/// what the population layer (src/pop) uses with an independent
/// counter-hashed Rng per client so any subset of a million-device fleet
/// can be drawn without walking a sequential chain.
DeviceProfile sample_device(const FleetConfig& cfg, Rng& rng);

/// Diurnal availability model: a device is online with probability
///   clamp(base_online_frac + diurnal_amplitude ·
///         sin(2π · ((round + phase) mod period_rounds) / period_rounds),
///         0, 1)
/// where `phase` spreads devices across timezones/habits. Substitutes for
/// the FedScale availability trace the paper samples participants under:
/// the population layer filters selection to clients whose counter-hashed
/// draw lands under this probability, so availability is deterministic per
/// (seed, round, client) and free of per-client state.
struct AvailabilityModel {
  /// Mean online fraction (1.0 = every device always online).
  double base_online_frac = 1.0;
  /// Peak-to-mean swing of the diurnal cycle (0 = flat).
  double diurnal_amplitude = 0.0;
  /// Rounds per simulated day. A Population accepts [1, 65536]: it stores
  /// each client's phase in 16 bits.
  int period_rounds = 24;
  std::uint64_t seed = 0xa5a11ab1eULL;
};

/// True when every device is online in every round (base ≥ 1, no swing).
bool always_online(const AvailabilityModel& m);

/// The online probability above for a device with diurnal offset `phase`
/// in `round`. `round + phase` wraps in uint32 before the modulo.
double online_probability(const AvailabilityModel& m, std::uint32_t round,
                          std::uint32_t phase);

/// The part of a round's availability hash that depends only on
/// (m.seed, round). A client is online iff hash01_from(prefix, client)
/// lands under its online_probability.
inline std::uint64_t availability_prefix(const AvailabilityModel& m,
                                         std::uint32_t round) {
  return hash_prefix(m.seed, 0xa7a11u, round);
}

/// Deterministic per-(round, client) availability draw. `phase` is the
/// client's diurnal offset in rounds (ClientDescriptor::avail_phase).
/// Composed from the functions above, which bulk scans
/// (Population::select_cohort) call directly.
bool device_available(const AvailabilityModel& m, std::uint32_t round,
                      std::uint32_t client, std::uint32_t phase);

/// Max/min compute ratio across the fleet (paper reports ≥ 29×).
double fleet_disparity(const std::vector<DeviceProfile>& fleet);

/// Wall-clock seconds one client needs for a training round: forward+backward
/// compute (≈ 3× forward MACs) for steps × batch samples, plus model
/// download+upload.
double client_round_time_s(const DeviceProfile& dev, double model_macs,
                           int local_steps, int batch,
                           double model_bytes);

/// Per-sample inference latency in milliseconds (Fig. 1a metric).
double inference_latency_ms(const DeviceProfile& dev, double model_macs);

/// Seconds to move `bytes` over one direction of the device's link (the
/// per-frame latency model the federation fabric's simulated transport
/// uses; client_round_time_s's comm term is two such transfers of the
/// model).
double transfer_time_s(const DeviceProfile& dev, double bytes);

/// Largest value in `model_macs` that fits the device's capacity; -1 if none.
int most_capable_fit(const DeviceProfile& dev,
                     const std::vector<double>& model_macs);

}  // namespace fedtrans
