// Extension bench: uplink compression vs the Table-2 "Network (MB)" cost.
// The paper attacks network volume architecturally (small models first);
// gradient compression is the orthogonal systems remedy. This bench trains
// the same global model under dense, top-k (± error feedback) and
// quantized uplinks and reports the accuracy/network trade-off.

#include <iostream>

#include "common/table.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[extension] uplink compression trade-off ("
            << scale_name(scale) << ", femnist-like)\n\n";
  auto preset = femnist_like(scale);
  auto data = FederatedDataset::generate(preset.dataset);
  auto fleet = sample_fleet(preset.fleet);
  Rng rng(29);
  Model init(preset.initial_model, rng);

  struct Variant {
    const char* label;
    CompressionKind kind;
    double ratio;
    bool ef;
  };
  const Variant variants[] = {
      {"dense fp32", CompressionKind::None, 0.1, false},
      {"top-k 10%", CompressionKind::TopK, 0.10, false},
      {"top-k 2%", CompressionKind::TopK, 0.02, false},
      {"top-k 2% + EF", CompressionKind::TopK, 0.02, true},
      {"quant 8-bit", CompressionKind::Quant8, 0.1, false},
      {"quant 4-bit", CompressionKind::Quant4, 0.1, false},
  };

  TablePrinter t({"uplink", "accuracy (%)", "network (MB)", "final loss"});
  for (const Variant& v : variants) {
    SessionConfig cfg;
    cfg.rounds = preset.fedtrans.rounds;
    cfg.clients_per_round = preset.fedtrans.clients_per_round;
    cfg.local = preset.fedtrans.local;
    cfg.seed = preset.fedtrans.seed;
    FedAvgOptions opts;
    opts.compression = v.kind;
    opts.topk_ratio = v.ratio;
    opts.error_feedback = v.ef;
    FederationEngine runner(std::make_unique<FedAvgStrategy>(init, opts), data,
                            fleet, cfg);
    runner.run();
    const double acc = mean_client_accuracy(
        runner.strategy_as<FedAvgStrategy>().model(), data);
    t.add_row({v.label, fmt_fixed(acc * 100, 2),
               fmt_fixed(runner.costs().network_mb(), 2),
               fmt_fixed(runner.history().back().avg_loss, 3)});
    std::cerr << "done: " << v.label << "\n";
  }
  t.print(std::cout);
  std::cout << "\nshape check: 8-bit quantization is accuracy-neutral at "
               "~4x less uplink; aggressive top-k trades accuracy for "
               "10-50x savings and error feedback claws most of it back.\n";
  return 0;
}
