#pragma once

#include <string>
#include <string_view>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "model/spec.hpp"
#include "trace/device.hpp"

namespace fedtrans {

/// Benchmark scale. Every experiment binary defaults to Tiny so the whole
/// suite runs in minutes on a laptop CPU; FEDTRANS_BENCH_SCALE=small|full
/// grows client counts and round budgets toward the paper's protocol.
enum class Scale { Tiny, Small, Full };

/// "tiny", "small" or "full", exactly as scale_name spells them; any other
/// name throws Error.
Scale parse_scale(std::string_view name);
/// FEDTRANS_BENCH_SCALE through parse_scale; unset means Tiny.
Scale bench_scale();
const char* scale_name(Scale s);

/// Everything one experiment needs: a dataset, a device fleet, the initial
/// model, and the FL/FedTrans hyper-parameters (per-dataset values follow
/// the paper's Table 7, rescaled to the reduced round budgets).
struct ExperimentPreset {
  std::string name;
  DatasetConfig dataset;
  FleetConfig fleet;
  ModelSpec initial_model;
  FedTransConfig fedtrans;
};

/// CIFAR-10-like: 3-channel images, 10 classes, 100 paper clients
/// (MobileNetV3-small initial model in the paper).
ExperimentPreset cifar_like(Scale s, std::uint64_t seed = 1);
/// FEMNIST-like: 1-channel, 62→scaled classes, 3,400 paper clients
/// (NASBench201 base initial model).
ExperimentPreset femnist_like(Scale s, std::uint64_t seed = 1);
/// Speech-Commands-like: 1-channel "spectrograms", 35→scaled classes,
/// 2,618 paper clients (small ResNet18 initial model).
ExperimentPreset speech_like(Scale s, std::uint64_t seed = 1);
/// OpenImage-like: 3-channel, 600→scaled classes, 14,477 paper clients
/// (small ResNet18 initial model).
ExperimentPreset openimage_like(Scale s, std::uint64_t seed = 1);

/// All four, in the paper's Table 2 order.
std::vector<ExperimentPreset> all_presets(Scale s, std::uint64_t seed = 1);

}  // namespace fedtrans
