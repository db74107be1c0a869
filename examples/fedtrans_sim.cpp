// fedtrans_sim — command-line driver for the simulation harness.
//
//   fedtrans_sim [--dataset cifar|femnist|speech|openimage]
//                [--method fedtrans|heterofl|splitmix|fluid|fedavg|centralized]
//                [--scale tiny|small|full] [--seed N] [--rounds N]
//                [--clients-per-round N] [--beta X] [--alpha X]
//                [--widen X] [--deepen N] [--l2s] [--no-transform]
//
// Runs one method on one workload and prints the paper-style report row
// (mean accuracy, IQR, MACs, storage, network) plus, for FedTrans, the
// model family. Every knob maps 1:1 onto the public API, so this doubles
// as living documentation of the configuration surface.

#include <cstring>
#include <iostream>
#include <string>

#include "common/check.hpp"
#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

namespace {

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n";
  std::cerr <<
      "usage: fedtrans_sim [--dataset cifar|femnist|speech|openimage]\n"
      "                    [--method fedtrans|heterofl|splitmix|fluid|"
      "fedavg|centralized]\n"
      "                    [--scale tiny|small|full] [--seed N] [--rounds N]\n"
      "                    [--clients-per-round N] [--beta X] [--alpha X]\n"
      "                    [--widen X] [--deepen N] [--l2s] [--no-transform]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "femnist";
  std::string method = "fedtrans";
  std::string scale_s = "tiny";
  std::uint64_t seed = 1;
  int rounds = -1, cpr = -1, deepen = -1;
  double beta = -1, alpha = -1, widen = -1;
  bool l2s = false, no_transform = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--dataset") dataset = next();
    else if (a == "--method") method = next();
    else if (a == "--scale") scale_s = next();
    else if (a == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--rounds") rounds = std::atoi(next());
    else if (a == "--clients-per-round") cpr = std::atoi(next());
    else if (a == "--beta") beta = std::atof(next());
    else if (a == "--alpha") alpha = std::atof(next());
    else if (a == "--widen") widen = std::atof(next());
    else if (a == "--deepen") deepen = std::atoi(next());
    else if (a == "--l2s") l2s = true;
    else if (a == "--no-transform") no_transform = true;
    else if (a == "--help" || a == "-h") usage(nullptr);
    else usage(("unknown flag " + a).c_str());
  }

  Scale scale = Scale::Tiny;
  try {
    scale = parse_scale(scale_s);
  } catch (const Error& e) {
    usage(e.what());
  }

  ExperimentPreset preset;
  if (dataset == "cifar") preset = cifar_like(scale, seed);
  else if (dataset == "femnist") preset = femnist_like(scale, seed);
  else if (dataset == "speech") preset = speech_like(scale, seed);
  else if (dataset == "openimage") preset = openimage_like(scale, seed);
  else usage("bad --dataset");

  if (rounds > 0) preset.fedtrans.rounds = rounds;
  if (cpr > 0) preset.fedtrans.clients_per_round = cpr;
  if (beta > 0) preset.fedtrans.beta = beta;
  if (alpha > 0) preset.fedtrans.alpha = alpha;
  if (widen > 1) preset.fedtrans.widen_factor = widen;
  if (deepen > 0) preset.fedtrans.deepen_blocks = deepen;
  preset.fedtrans.enable_l2s = l2s;
  preset.fedtrans.enable_transform = !no_transform;
  preset.fedtrans.seed = seed;

  std::cout << "workload " << preset.name << " (" << scale_name(scale)
            << "), method " << method << ", seed " << seed << "\n";

  MethodResult res;
  if (method == "fedtrans") {
    res = run_fedtrans(preset);
  } else if (method == "fedavg") {
    res = run_single_model(preset, preset.initial_model);
  } else if (method == "centralized") {
    res = run_centralized(preset, preset.initial_model);
  } else {
    // Baselines receive FedTrans's largest model per the paper's protocol.
    auto ft = run_fedtrans(preset);
    std::cout << "(FedTrans largest model: " << ft.largest_spec.summary()
              << ")\n";
    if (method == "heterofl") res = run_heterofl(preset, ft.largest_spec);
    else if (method == "splitmix") res = run_splitmix(preset, ft.largest_spec);
    else if (method == "fluid") res = run_fluid(preset, ft.largest_spec);
    else usage("bad --method");
  }

  TablePrinter t({"method", "accu (%)", "IQR (%)", "cost", "storage",
                  "network", "#models"});
  t.add_row({res.method, fmt_fixed(res.report.mean_accuracy * 100, 2),
             fmt_fixed(res.report.accuracy_iqr * 100, 2),
             fmt_macs(res.report.costs.total_macs()),
             fmt_bytes(res.report.costs.storage_bytes()),
             fmt_bytes(res.report.costs.network_bytes()),
             std::to_string(res.num_models)});
  t.print(std::cout);
  if (method == "fedtrans")
    std::cout << "largest model: " << res.largest_spec.summary() << " ("
              << fmt_macs(res.largest_macs) << ")\n";
  return 0;
}
