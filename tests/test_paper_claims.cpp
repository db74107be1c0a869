// The paper's headline claims, pinned where they reproduce. FedTrans
// (MLSys'24) reports higher client accuracy than HeteroFL, SplitMix and
// FLuID at lower training and network cost. Only the cost half holds in
// this reproduction so far (see ROADMAP.md), so only that half is asserted
// here.

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiments.hpp"

namespace fedtrans {
namespace {

TEST(PaperClaimsTest, FedTransTrainsAndShipsLessThanHeteroFLAndFLuID) {
  // Table 2's protocol (§A.1): FedTrans first, then each baseline on the
  // largest model FedTrans grew. The margins sit above the worst ratios
  // measured over seeds 1–5 at tiny scale on cifar-like: MACs 0.636–0.704,
  // network bytes 0.557–0.635.
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const auto p = cifar_like(Scale::Tiny, seed);
    const MethodResult ft = run_fedtrans(p);
    const CostMeter hetero = run_heterofl(p, ft.largest_spec).report.costs;
    const CostMeter fluid = run_fluid(p, ft.largest_spec).report.costs;
    const CostMeter& ours = ft.report.costs;
    EXPECT_LE(ours.total_macs(),
              0.8 * std::min(hetero.total_macs(), fluid.total_macs()))
        << "seed " << seed;
    EXPECT_LE(ours.network_bytes(),
              0.75 * std::min(hetero.network_bytes(), fluid.network_bytes()))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace fedtrans
