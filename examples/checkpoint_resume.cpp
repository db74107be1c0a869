// Checkpoint & resume: survive a coordinator crash without perturbing the
// training trajectory.
//
// FL runs span days on preemptible infrastructure, so the coordinator must
// be restartable. FederationEngine::save_checkpoint writes *all* dynamic
// session state — the engine's RNG, cost meters, selector state and round
// history, then FedTransStrategy's model family (specs, weights, per-model
// server-optimizer state), client utilities and DoC/activeness histories —
// so a restored run continues bit-identically. This example trains half a
// run, "crashes", restores from the checkpoint file, finishes, and verifies
// the resumed run matches an uninterrupted reference exactly.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "common/table.hpp"
#include "core/trainer.hpp"
#include "harness/presets.hpp"

using namespace fedtrans;

int main() {
  ExperimentPreset preset = femnist_like(Scale::Tiny);
  FederatedDataset data = FederatedDataset::generate(preset.dataset);
  std::vector<DeviceProfile> fleet = sample_fleet(preset.fleet);
  const SessionConfig session = SessionConfig::from(preset.fedtrans);
  const int half = preset.fedtrans.rounds / 2;
  const char* ckpt_path = "fedtrans_demo.ckpt";
  auto fedtrans_session = [&] {
    return std::make_unique<FederationEngine>(
        std::make_unique<FedTransStrategy>(preset.initial_model,
                                           preset.fedtrans),
        data, fleet, session);
  };

  // --- Reference: one uninterrupted run. -------------------------------
  auto reference = fedtrans_session();
  reference->run();

  // --- Interrupted run: train half, checkpoint, "crash". ----------------
  {
    auto trainer = fedtrans_session();
    for (int r = 0; r < half; ++r) trainer->run_round();
    std::ofstream os(ckpt_path, std::ios::binary);
    trainer->save_checkpoint(os);
    std::cout << "checkpointed at round " << trainer->rounds_done()
              << " with "
              << trainer->strategy_as<FedTransStrategy>().num_models()
              << " model(s)\n";
    // trainer goes out of scope — the coordinator process is gone.
  }

  // --- Recovery: a fresh process restores and finishes the run. ---------
  auto resumed = fedtrans_session();
  {
    std::ifstream is(ckpt_path, std::ios::binary);
    resumed->load_checkpoint(is);
  }
  std::cout << "restored at round " << resumed->rounds_done() << "\n";
  while (resumed->rounds_done() < preset.fedtrans.rounds)
    resumed->run_round();

  // --- Verify bit-exact equivalence with the reference. -----------------
  auto& ref = reference->strategy_as<FedTransStrategy>();
  auto& res = resumed->strategy_as<FedTransStrategy>();
  bool identical = ref.num_models() == res.num_models();
  if (identical) {
    for (int k = 0; k < ref.num_models() && identical; ++k) {
      auto wa = ref.model(k).weights();
      auto wb = res.model(k).weights();
      for (std::size_t i = 0; i < wa.size() && identical; ++i)
        for (std::int64_t j = 0; j < wa[i].numel() && identical; ++j)
          identical = wa[i][j] == wb[i][j];
    }
  }
  std::cout << "resumed run "
            << (identical ? "matches the uninterrupted reference bit-exactly"
                          : "DIVERGED from the reference (bug!)")
            << "\n";

  const FinalEval ev = res.evaluate_final();
  std::cout << "final mean client accuracy: "
            << fmt_fixed(ev.mean_accuracy * 100, 2) << "%\n";
  std::remove(ckpt_path);
  return identical ? 0 : 1;
}
