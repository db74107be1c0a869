// A hand-rolled Vision Transformer from substrate pieces: patch-embedding
// conv → tokens → pre-norm residual blocks (LayerNorm + multi-head
// Attention, LayerNorm + TokenMlp) → mean-pool → linear head.
//
// The paper's Table 4 transforms single-head attention Cells through the
// ModelSpec machinery; this example builds the same Attention layer with
// several heads, directly from the substrate, and trains it centrally on
// the pooled synthetic dataset.

#include <iostream>

#include "common/table.hpp"
#include "data/dataset.hpp"
#include "model/model.hpp"
#include "nn/attention.hpp"
#include "nn/layer_norm.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/conv2d.hpp"
#include "nn/sgd.hpp"

using namespace fedtrans;

namespace {

struct MiniViT {
  std::unique_ptr<Conv2d> embed;        // patch embedding
  PatchToTokens to_tokens;
  std::vector<std::unique_ptr<Block>> blocks;  // residual transformer blocks
  MeanTokens pool;
  std::unique_ptr<Linear> head;

  Tensor forward(const Tensor& x, bool train) {
    Tensor h = embed->forward(x, train);
    h = to_tokens.forward(h, train);
    for (auto& b : blocks) h = b->forward(h, train);
    h = pool.forward(h, train);
    return head->forward(h, train);
  }
  void backward(const Tensor& grad) {
    Tensor g = head->backward(grad);
    g = pool.backward(g);
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it)
      g = (*it)->backward(g);
    g = to_tokens.backward(g);
    embed->backward(g);
  }
  std::vector<ParamRef> params() {
    std::vector<ParamRef> ps = embed->params();
    for (auto& b : blocks)
      for (auto& p : b->params()) ps.push_back(p);
    for (auto& p : head->params()) ps.push_back(p);
    return ps;
  }
};

MiniViT build_vit(int channels, int hw, int classes, int dim, int heads,
                  int depth, Rng& rng) {
  MiniViT vit;
  const int patch = 4;
  vit.embed = std::make_unique<Conv2d>(channels, dim, patch, patch, 0);
  vit.embed->init(rng);
  for (int d = 0; d < depth; ++d) {
    {
      auto attn = std::make_unique<Attention>(dim, heads);
      attn->init(rng);
      std::vector<std::unique_ptr<Layer>> ls;
      ls.push_back(std::make_unique<LayerNorm>(dim));
      ls.push_back(std::move(attn));
      vit.blocks.push_back(
          std::make_unique<Block>(std::move(ls), /*residual=*/true));
    }
    {
      auto mlp = std::make_unique<TokenMlp>(dim, 2 * dim);
      mlp->init(rng);
      std::vector<std::unique_ptr<Layer>> ls;
      ls.push_back(std::make_unique<LayerNorm>(dim));
      ls.push_back(std::move(mlp));
      vit.blocks.push_back(
          std::make_unique<Block>(std::move(ls), /*residual=*/true));
    }
  }
  vit.head = std::make_unique<Linear>(dim, classes);
  vit.head->init(rng);
  (void)hw;
  return vit;
}

}  // namespace

int main() {
  DatasetConfig dcfg;
  dcfg.num_classes = 6;
  dcfg.channels = 1;
  dcfg.hw = 16;  // 4×4 patches → 16 tokens
  dcfg.num_clients = 24;
  dcfg.mean_train_samples = 30;
  dcfg.seed = 11;
  auto data = FederatedDataset::generate(dcfg);
  ClientData pooled = data.pooled();

  Rng rng(23);
  MiniViT vit = build_vit(dcfg.channels, dcfg.hw, dcfg.num_classes,
                          /*dim=*/16, /*heads=*/4, /*depth=*/2, rng);
  std::int64_t n_params = 0;
  for (auto& p : vit.params()) n_params += p.value->numel();
  std::cout << "mini-ViT: " << n_params << " params, depth 2, 4 heads\n";

  Sgd opt(vit.params(), SgdOptions{.lr = 0.03, .momentum = 0.9});
  SoftmaxCrossEntropy loss_fn;
  Tensor xb;
  std::vector<int> yb;
  for (int step = 0; step < 400; ++step) {
    sample_batch(pooled, 16, rng, xb, yb);
    Tensor logits = vit.forward(xb, true);
    const double loss = loss_fn.forward(logits, yb);
    vit.backward(loss_fn.backward());
    opt.step();
    if (step % 100 == 0)
      std::cout << "step " << step << "  loss " << fmt_fixed(loss, 3) << "\n";
  }

  int correct = 0, total = 0;
  for (int c = 0; c < data.num_clients(); ++c) {
    const ClientData& cd = data.client(c);
    Tensor logits = vit.forward(cd.x_eval, false);
    correct += count_correct(logits, cd.y_eval);
    total += cd.eval_size();
  }
  std::cout << "eval accuracy: "
            << fmt_fixed(100.0 * correct / std::max(1, total), 2) << "%\n";
  return 0;
}
