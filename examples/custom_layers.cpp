// Using the NN substrate directly: build a custom architecture from
// individual layers (BatchNorm, MaxPool2d, Dropout, grouped Conv2d,
// Sequential) without the Cell-based ModelSpec machinery, train it on a
// pooled dataset, and demonstrate the grouped→dense conversion the paper's
// appendix applies before handing models to HeteroFL/SplitMix.

#include <iostream>

#include "common/table.hpp"
#include "data/dataset.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"

using namespace fedtrans;

namespace {

// A MobileNet-flavoured mini CNN: conv stem → depthwise-separable block
// with BatchNorm → maxpool → dropout-regularized classifier head.
Sequential build_net(int channels, int classes, Rng& rng) {
  Sequential net;
  auto stem = std::make_unique<Conv2d>(channels, 8, 3);
  stem->init(rng);
  net.add(std::move(stem));
  net.emplace<BatchNorm>(8);
  net.emplace<ReLU>();
  net.add(make_depthwise_separable(8, 16, 3, /*stride=*/1, rng));
  net.emplace<BatchNorm>(16);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>(2);
  net.emplace<GlobalAvgPool>();
  net.emplace<Dropout>(0.1);
  auto head = std::make_unique<Linear>(16, classes);
  head->init(rng);
  net.add(std::move(head));
  return net;
}

}  // namespace

int main() {
  DatasetConfig dcfg;
  dcfg.num_classes = 6;
  dcfg.channels = 1;
  dcfg.hw = 12;
  dcfg.num_clients = 24;
  dcfg.mean_train_samples = 30;
  dcfg.seed = 5;
  auto data = FederatedDataset::generate(dcfg);
  ClientData pooled = data.pooled();
  std::cout << "pooled training set: " << pooled.train_size()
            << " samples, " << dcfg.num_classes << " classes\n";

  Rng rng(42);
  Sequential net = build_net(dcfg.channels, dcfg.num_classes, rng);
  const std::vector<int> in_shape{dcfg.channels, dcfg.hw, dcfg.hw};
  std::cout << "custom net: " << net.num_params() << " params, "
            << fmt_macs(static_cast<double>(net.macs(in_shape)))
            << " per sample\n";

  // Plain centralized SGD on the pooled shard.
  Sgd opt(net.params(), SgdOptions{.lr = 0.05, .momentum = 0.9});
  SoftmaxCrossEntropy loss_fn;
  Tensor xb;
  std::vector<int> yb;
  for (int step = 0; step < 300; ++step) {
    sample_batch(pooled, 16, rng, xb, yb);
    Tensor logits = net.forward(xb, /*train=*/true);
    const double loss = loss_fn.forward(logits, yb);
    net.backward(loss_fn.backward());
    opt.step();
    if (step % 100 == 0)
      std::cout << "step " << step << "  loss " << fmt_fixed(loss, 3) << "\n";
  }

  // Eval-mode accuracy (BatchNorm switches to running stats; Dropout off).
  int correct = 0, total = 0;
  for (int c = 0; c < data.num_clients(); ++c) {
    const ClientData& cd = data.client(c);
    Tensor logits = net.forward(cd.x_eval, /*train=*/false);
    for (int i = 0; i < cd.eval_size(); ++i) {
      int arg = 0;
      for (int k = 1; k < dcfg.num_classes; ++k)
        if (logits.at(i, k) > logits.at(i, arg)) arg = k;
      correct += arg == cd.y_eval[static_cast<std::size_t>(i)] ? 1 : 0;
      ++total;
    }
  }
  std::cout << "eval accuracy: "
            << fmt_fixed(100.0 * correct / std::max(1, total), 2) << "%\n";

  // Grouped→dense conversion (paper Appendix A.1): identical function,
  // higher MACs — the price of baseline compatibility.
  Conv2d grouped(8, 8, 3, /*stride=*/1, /*padding=*/-1, /*bias=*/true,
                 /*groups=*/8);
  grouped.init(rng);
  auto dense = grouped.to_dense();
  const std::vector<int> shape{8, 10, 10};
  std::cout << "depthwise conv: "
            << fmt_macs(static_cast<double>(grouped.macs(shape)))
            << " vs dense-converted: "
            << fmt_macs(static_cast<double>(dense->macs(shape)))
            << " (same outputs, " << dense->macs(shape) / grouped.macs(shape)
            << "x the compute)\n";
  return 0;
}
