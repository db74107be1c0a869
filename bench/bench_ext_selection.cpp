// Extension bench: participant-selection strategies under FedTrans. The
// paper samples participants uniformly (FedScale protocol) and cites Oort
// (Lai et al., OSDI'21) as the guided-selection line of work; this bench
// quantifies what guided selection adds on top of multi-model training.

#include <iostream>

#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[extension] client selection under FedTrans ("
            << scale_name(scale) << ", femnist-like)\n\n";
  auto preset = femnist_like(scale);

  TablePrinter t({"selector", "accuracy (%)", "IQR (%)", "cost (MACs)",
                  "#models"});
  struct Entry {
    SelectorKind kind;
    const char* label;
  };
  for (const Entry& e :
       {Entry{SelectorKind::Uniform, "uniform (paper)"},
        Entry{SelectorKind::Oort, "oort-like"},
        Entry{SelectorKind::PowerOfChoice, "power-of-choice"}}) {
    SessionConfig session = SessionConfig::from(preset.fedtrans);
    session.selector = e.kind;
    auto res = run_fedtrans_cfg(preset, preset.fedtrans, session);
    t.add_row({e.label, fmt_fixed(res.report.mean_accuracy * 100, 2),
               fmt_fixed(res.report.accuracy_iqr * 100, 2),
               fmt_sci(res.report.costs.total_macs()),
               std::to_string(res.num_models)});
    std::cerr << "done: " << e.label << "\n";
  }
  t.print(std::cout);
  std::cout << "\nshape check: loss-guided selection (oort/pow-d) matches or "
               "improves mean accuracy at equal cost by revisiting "
               "poorly-fit clients; uniform remains a solid default.\n";
  return 0;
}
