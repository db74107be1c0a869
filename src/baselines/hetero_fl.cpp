#include "baselines/hetero_fl.hpp"

#include "model/align.hpp"

namespace fedtrans {

void HeteroFLStrategy::for_each_element(int, Model& sub, const ElementFn& fn) {
  // No submodel dimension exceeds the global one, so the prefix overlap is
  // the whole submodel tensor.
  auto gp = global().params();
  auto sp = sub.params();
  for (std::size_t p = 0; p < sp.size(); ++p)
    for_each_overlap(*gp[p].value, *sp[p].value,
                     [&](std::int64_t gi, std::int64_t si) { fn(p, gi, si); });
}

}  // namespace fedtrans
