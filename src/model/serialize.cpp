#include "model/serialize.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/serial.hpp"
#include "tensor/dtype.hpp"

namespace fedtrans {

namespace {
constexpr std::uint32_t kMagic = 0xfed7a25u;
}

void save_model(Model& model, std::ostream& os) {
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  const std::string spec = model.spec().serialize();
  const auto spec_len = static_cast<std::uint32_t>(spec.size());
  os.write(reinterpret_cast<const char*>(&spec_len), sizeof(spec_len));
  os.write(spec.data(), static_cast<std::streamsize>(spec.size()));
  auto ps = model.params();
  const auto count = static_cast<std::uint32_t>(ps.size());
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (auto& p : ps) p.value->save(os);
  FT_CHECK_MSG(os.good(), "model serialization stream failure");
}

Model load_model(std::istream& is) {
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  FT_CHECK_MSG(is.good() && magic == kMagic, "not a fedtrans model stream");
  std::uint32_t spec_len = 0;
  is.read(reinterpret_cast<char*>(&spec_len), sizeof(spec_len));
  FT_CHECK_MSG(is.good() && spec_len < (1u << 20), "corrupt spec length");
  std::string spec_text(spec_len, '\0');
  is.read(spec_text.data(), static_cast<std::streamsize>(spec_len));
  const ModelSpec spec = ModelSpec::deserialize(spec_text);
  // The spec sizes every tensor the Model allocates, so it must fit in the
  // bytes left (at least two per half-width parameter) before the Model is
  // built: a corrupt width then fails here, not in the allocator.
  FT_CHECK_MSG(model_param_count(spec) <=
                   static_cast<double>(stream_remaining(is)) /
                       dtype_bytes(Dtype::F16),
               "model spec exceeds remaining stream");

  Rng rng(0);  // weights are overwritten below
  Model model(spec, rng);
  std::uint32_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  auto ps = model.params();
  FT_CHECK_MSG(count == ps.size(), "parameter count mismatch in stream");
  for (auto& p : ps) {
    Tensor t = Tensor::load(is);
    FT_CHECK_MSG(t.same_shape(*p.value), "parameter shape mismatch in stream");
    *p.value = std::move(t);
  }
  return model;
}

void save_model_file(Model& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  FT_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  save_model(model, os);
}

Model load_model_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  FT_CHECK_MSG(is.good(), "cannot open " << path << " for reading");
  return load_model(is);
}

}  // namespace fedtrans
