#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "fl/weights.hpp"

namespace fedtrans {

/// Client-update (uplink) compression. The paper's Table 2 reports network
/// volume as a first-class cost; these compressors are the standard
/// gradient-compression remedies (top-k sparsification, uniform
/// quantization) applied to the client delta before upload. The simulation
/// applies compress() in place (the server sees the lossy delta) and uses
/// compressed_bytes() for network accounting; the wire format itself is not
/// materialized.
class DeltaCompressor {
 public:
  virtual ~DeltaCompressor() = default;

  /// Lossy-compress `delta` in place (what the server would decode).
  virtual void compress(WeightSet& delta) = 0;
  /// Uplink bytes for shipping `delta` in this compressor's wire layout.
  /// Pure function of the delta's shapes and storage dtypes — no state
  /// from prior compress() calls — so one compressor instance bills
  /// identically regardless of call order or which thread's client asks.
  virtual double compressed_bytes(const WeightSet& delta) const = 0;
  virtual std::string name() const = 0;
};

/// No-op compressor: dense upload, each tensor at its storage width.
class NoCompression : public DeltaCompressor {
 public:
  void compress(WeightSet&) override {}
  double compressed_bytes(const WeightSet& delta) const override {
    double bytes = 0.0;
    for (const Tensor& t : delta)
      bytes += static_cast<double>(t.numel() * dtype_bytes(t.dtype()));
    return bytes;
  }
  std::string name() const override { return "none"; }
};

/// Global top-k magnitude sparsification: keep the k = ratio × numel
/// largest-|v| entries across the whole delta, zero the rest. Wire cost is
/// a 4-byte index plus the value at its tensor's storage width per
/// survivor (4 bytes, 2 in fp16/bf16 sessions).
class TopKCompression : public DeltaCompressor {
 public:
  explicit TopKCompression(double ratio);

  void compress(WeightSet& delta) override;
  double compressed_bytes(const WeightSet& delta) const override;
  std::string name() const override { return "topk"; }

  double ratio() const { return ratio_; }

 private:
  double ratio_;
};

/// Per-tensor uniform quantization to 2^bits symmetric levels around zero:
/// v → round(v/scale) · scale with scale = max|v| / (2^(bits−1) − 1).
/// Wire cost is `bits` per parameter plus one fp32 scale per tensor.
class UniformQuantization : public DeltaCompressor {
 public:
  explicit UniformQuantization(int bits);

  void compress(WeightSet& delta) override;
  double compressed_bytes(const WeightSet& delta) const override;
  std::string name() const override { return "quant"; }

  int bits() const { return bits_; }

 private:
  int bits_;
};

enum class CompressionKind { None, TopK, Quant8, Quant4 };

std::unique_ptr<DeltaCompressor> make_compressor(CompressionKind kind,
                                                 double topk_ratio = 0.1);
const char* compression_name(CompressionKind kind);

/// Error feedback (Seide et al. / EF-SGD): per-client residual memory that
/// re-injects what compression dropped into the next round's delta, which
/// recovers most of the accuracy a biased compressor loses. Keyed by client
/// id. A returning client whose model spec changed between participations
/// (possible under FedTrans transforms) presents deltas whose shapes no
/// longer match the stored residual — both hooks validate per-tensor shapes
/// and reset that client's residual with a warning instead of folding
/// garbage.
class ErrorFeedback {
 public:
  /// delta ← delta + residual[client]; call before compress(). A residual
  /// whose shapes drifted from `delta` is discarded (logged), not folded.
  void add_residual(int client, WeightSet& delta);
  /// residual[client] ← pre − post; call after compress() with the delta
  /// as it looked before (pre) and after (post) compression. Mismatched
  /// pre/post shapes reset the client's residual (logged) — storing their
  /// difference would poison every later round.
  void store_residual(int client, const WeightSet& pre, const WeightSet& post);

  bool has_residual(int client) const;
  std::size_t tracked_clients() const { return residuals_.size(); }

 private:
  std::unordered_map<int, WeightSet> residuals_;
};

}  // namespace fedtrans
