#include "model/model.hpp"

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/scale_shift.hpp"

namespace fedtrans {

namespace {

// Mixed-precision activation seam: when the thread's activation dtype is a
// half format (set by local_train via ScopedActivationDtype), tensors
// crossing block boundaries are rounded onto that grid — modeling half
// activation storage between blocks while every in-block op accumulates in
// fp32. A no-op in the default fp32 mode.
inline void round_activation(Tensor& t) {
  const Dtype d = activation_dtype();
  if (d != Dtype::F32) round_to_dtype(t.values(), d);
}

}  // namespace

Block::Block(std::vector<std::unique_ptr<Layer>> layers, bool residual)
    : layers_(std::move(layers)), residual_(residual) {
  FT_CHECK(!layers_.empty());
}

Tensor Block::forward(const Tensor& x, bool train) {
  Tensor h = x;
  for (auto& l : layers_) h = l->forward(h, train);
  if (residual_) {
    FT_CHECK_MSG(h.same_shape(x), "residual block shape mismatch");
    h.add_(x);
  }
  round_activation(h);
  return h;
}

Tensor Block::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  if (residual_) g.add_(grad_out);
  round_activation(g);
  return g;
}

void Block::backward_params(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i)
    g = layers_[i]->backward(g);
  layers_.front()->backward_params(g);
}

std::vector<ParamRef> Block::params() {
  std::vector<ParamRef> ps;
  for (auto& l : layers_)
    for (auto& p : l->params()) ps.push_back(p);
  return ps;
}

std::int64_t Block::macs(const std::vector<int>& in_shape) const {
  std::int64_t total = 0;
  std::vector<int> shape = in_shape;
  for (const auto& l : layers_) {
    total += l->macs(shape);
    shape = l->out_shape(shape);
  }
  return total;
}

std::vector<int> Block::out_shape(const std::vector<int>& in_shape) const {
  std::vector<int> shape = in_shape;
  for (const auto& l : layers_) shape = l->out_shape(shape);
  return shape;
}

std::unique_ptr<Block> Block::clone() const {
  std::vector<std::unique_ptr<Layer>> copies;
  copies.reserve(layers_.size());
  for (const auto& l : layers_) copies.push_back(l->clone());
  return std::make_unique<Block>(std::move(copies), residual_);
}

namespace {

std::unique_ptr<Block> make_conv_block(int in_c, int out_c, int stride,
                                       bool want_residual, Rng& rng) {
  auto conv = std::make_unique<Conv2d>(in_c, out_c, 3, stride);
  conv->init(rng);
  auto ss = std::make_unique<ScaleShift>(out_c);
  std::vector<std::unique_ptr<Layer>> ls;
  ls.push_back(std::move(conv));
  ls.push_back(std::move(ss));
  ls.push_back(std::make_unique<ReLU>());
  const bool residual = want_residual && in_c == out_c && stride == 1;
  return std::make_unique<Block>(std::move(ls), residual);
}

std::unique_ptr<Block> make_mlp_block(int in_f, int out_f, bool want_residual,
                                      Rng& rng) {
  auto lin = std::make_unique<Linear>(in_f, out_f);
  lin->init(rng);
  std::vector<std::unique_ptr<Layer>> ls;
  ls.push_back(std::move(lin));
  ls.push_back(std::make_unique<ReLU>());
  const bool residual = want_residual && in_f == out_f;
  return std::make_unique<Block>(std::move(ls), residual);
}

}  // namespace

Model::Model(ModelSpec spec, Rng& rng) : spec_(std::move(spec)) {
  build(rng);
  compute_macs();
}

Model::Model(const Model& other) : spec_(other.spec_) {
  stem_ = other.stem_->clone();
  cells_.reserve(other.cells_.size());
  for (const auto& cell : other.cells_) {
    std::vector<std::unique_ptr<Block>> blocks;
    blocks.reserve(cell.size());
    for (const auto& b : cell) blocks.push_back(b->clone());
    cells_.push_back(std::move(blocks));
  }
  head_pool_ = other.head_pool_ ? other.head_pool_->clone() : nullptr;
  classifier_ = other.classifier_->clone();
  macs_ = other.macs_;
  cell_macs_ = other.cell_macs_;
}

Model& Model::operator=(const Model& other) {
  if (this != &other) {
    Model tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

void Model::build(Rng& rng) {
  FT_CHECK_MSG(!spec_.cells.empty(), "model needs at least one cell");
  switch (spec_.kind) {
    case CellKind::Conv: {
      stem_ = make_conv_block(spec_.in_channels, spec_.stem_width, 1,
                              /*want_residual=*/false, rng);
      int prev = spec_.stem_width;
      for (const auto& c : spec_.cells) {
        FT_CHECK(c.kind == CellKind::Conv);
        std::vector<std::unique_ptr<Block>> blocks;
        for (int b = 0; b < c.blocks; ++b) {
          const int in_w = b == 0 ? prev : c.width;
          const int stride = b == 0 ? c.stride : 1;
          // The first block of a cell is never residual: widening changes
          // its input and output widths asymmetrically, which would break
          // the skip connection (and function preservation).
          blocks.push_back(
              make_conv_block(in_w, c.width, stride, c.residual && b > 0, rng));
        }
        cells_.push_back(std::move(blocks));
        prev = c.width;
      }
      head_pool_ = std::make_unique<GlobalAvgPool>();
      auto cls = std::make_unique<Linear>(prev, spec_.num_classes);
      cls->init(rng);
      classifier_ = std::move(cls);
      break;
    }
    case CellKind::Mlp: {
      const int in_f = spec_.in_channels * spec_.in_hw * spec_.in_hw;
      auto lin = std::make_unique<Linear>(in_f, spec_.stem_width);
      lin->init(rng);
      std::vector<std::unique_ptr<Layer>> stem_ls;
      stem_ls.push_back(std::make_unique<Flatten>());
      stem_ls.push_back(std::move(lin));
      stem_ls.push_back(std::make_unique<ReLU>());
      stem_ = std::make_unique<Block>(std::move(stem_ls), false);
      int prev = spec_.stem_width;
      for (const auto& c : spec_.cells) {
        FT_CHECK(c.kind == CellKind::Mlp);
        std::vector<std::unique_ptr<Block>> blocks;
        for (int b = 0; b < c.blocks; ++b) {
          const int in_w = b == 0 ? prev : c.width;
          blocks.push_back(
              make_mlp_block(in_w, c.width, c.residual && b > 0, rng));
        }
        cells_.push_back(std::move(blocks));
        prev = c.width;
      }
      head_pool_ = nullptr;
      auto cls = std::make_unique<Linear>(prev, spec_.num_classes);
      cls->init(rng);
      classifier_ = std::move(cls);
      break;
    }
    case CellKind::Attention: {
      FT_CHECK_MSG(spec_.in_hw % spec_.patch == 0,
                   "input not divisible by patch size");
      auto embed = std::make_unique<Conv2d>(spec_.in_channels, spec_.embed_dim,
                                            spec_.patch, spec_.patch, 0);
      embed->init(rng);
      std::vector<std::unique_ptr<Layer>> stem_ls;
      stem_ls.push_back(std::move(embed));
      stem_ls.push_back(std::make_unique<PatchToTokens>());
      stem_ = std::make_unique<Block>(std::move(stem_ls), false);
      for (const auto& c : spec_.cells) {
        FT_CHECK(c.kind == CellKind::Attention);
        std::vector<std::unique_ptr<Block>> blocks;
        for (int b = 0; b < c.blocks; ++b) {
          auto attn = std::make_unique<Attention>(spec_.embed_dim);
          attn->init(rng);
          std::vector<std::unique_ptr<Layer>> attn_ls;
          attn_ls.push_back(std::move(attn));
          blocks.push_back(std::make_unique<Block>(std::move(attn_ls), true));
          auto mlp = std::make_unique<TokenMlp>(spec_.embed_dim, c.width);
          mlp->init(rng);
          std::vector<std::unique_ptr<Layer>> mlp_ls;
          mlp_ls.push_back(std::move(mlp));
          blocks.push_back(std::make_unique<Block>(std::move(mlp_ls), true));
        }
        cells_.push_back(std::move(blocks));
      }
      head_pool_ = std::make_unique<MeanTokens>();
      auto cls = std::make_unique<Linear>(spec_.embed_dim, spec_.num_classes);
      cls->init(rng);
      classifier_ = std::move(cls);
      break;
    }
  }
}

void Model::compute_macs() {
  std::vector<int> shape;
  if (spec_.kind == CellKind::Mlp) {
    shape = {spec_.in_channels, spec_.in_hw, spec_.in_hw};
    if (spec_.in_hw == 1) shape = {spec_.in_channels, 1, 1};
  } else {
    shape = {spec_.in_channels, spec_.in_hw, spec_.in_hw};
  }
  macs_ = 0;
  cell_macs_.assign(cells_.size(), 0);
  // Stem expects 4-D (or flattenable) input shapes expressed as {C,H,W}.
  macs_ += stem_->macs(shape);
  shape = stem_->out_shape(shape);
  for (std::size_t l = 0; l < cells_.size(); ++l) {
    for (const auto& b : cells_[l]) {
      cell_macs_[l] += b->macs(shape);
      shape = b->out_shape(shape);
    }
    macs_ += cell_macs_[l];
  }
  if (head_pool_) {
    macs_ += head_pool_->macs(shape);
    shape = head_pool_->out_shape(shape);
  }
  macs_ += classifier_->macs(shape);
}

Tensor Model::forward(const Tensor& x, bool train) {
  Tensor h = x;
  if (spec_.kind == CellKind::Mlp && h.ndim() == 4) {
    // Mlp stem starts with Flatten, which accepts 4-D input directly.
  }
  h = stem_->forward(h, train);
  for (auto& cell : cells_)
    for (auto& b : cell) h = b->forward(h, train);
  if (head_pool_) h = head_pool_->forward(h, train);
  return classifier_->forward(h, train);
}

void Model::backward(const Tensor& grad_logits) {
  Tensor g = classifier_->backward(grad_logits);
  if (head_pool_) g = head_pool_->backward(g);
  for (auto cit = cells_.rbegin(); cit != cells_.rend(); ++cit)
    for (auto bit = cit->rbegin(); bit != cit->rend(); ++bit)
      g = (*bit)->backward(g);
  // Nothing consumes the gradient of the input images.
  stem_->backward_params(g);
}

void Model::zero_grad() {
  for (auto& p : params()) p.grad->zero();
}

std::vector<ParamRef> Model::params() {
  std::vector<ParamRef> ps = stem_->params();
  for (auto& cell : cells_)
    for (auto& b : cell)
      for (auto& p : b->params()) ps.push_back(p);
  for (auto& p : classifier_->params()) ps.push_back(p);
  return ps;
}

std::vector<ParamRef> Model::cell_params(int cell) {
  FT_CHECK(cell >= 0 && cell < num_cells());
  std::vector<ParamRef> ps;
  for (auto& b : cells_[static_cast<std::size_t>(cell)])
    for (auto& p : b->params()) ps.push_back(p);
  return ps;
}

std::pair<std::size_t, std::size_t> Model::cell_param_range(int cell) {
  FT_CHECK(cell >= 0 && cell < num_cells());
  std::size_t begin = stem_->params().size();
  for (int l = 0; l < cell; ++l) begin += cell_params(l).size();
  const std::size_t end = begin + cell_params(cell).size();
  return {begin, end};
}

int Model::blocks_in_cell(int cell) const {
  FT_CHECK(cell >= 0 && cell < num_cells());
  return static_cast<int>(cells_[static_cast<std::size_t>(cell)].size());
}

Block& Model::cell_block(int cell, int block) {
  FT_CHECK(cell >= 0 && cell < num_cells());
  auto& blocks = cells_[static_cast<std::size_t>(cell)];
  FT_CHECK(block >= 0 && block < static_cast<int>(blocks.size()));
  return *blocks[static_cast<std::size_t>(block)];
}

std::int64_t Model::num_params() const {
  std::int64_t n = 0;
  auto* self = const_cast<Model*>(this);
  for (auto& p : self->params()) n += p.value->numel();
  return n;
}

std::int64_t Model::cell_macs(int cell) const {
  FT_CHECK(cell >= 0 && cell < num_cells());
  return cell_macs_[static_cast<std::size_t>(cell)];
}

std::vector<Tensor> Model::weights() {
  std::vector<Tensor> ws;
  for (auto& p : params()) ws.push_back(*p.value);
  return ws;
}

void Model::set_weights(const std::vector<Tensor>& ws) {
  auto ps = params();
  FT_CHECK_MSG(ws.size() == ps.size(), "weight list size mismatch");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    FT_CHECK_MSG(ps[i].value->same_shape(ws[i]), "weight shape mismatch");
    *ps[i].value = ws[i];
  }
}

}  // namespace fedtrans
