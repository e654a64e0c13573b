#include "serve/adaptation.hpp"

#include "hdc/hv_matrix.hpp"

namespace smore {

AdaptationOutcome run_lifecycle_round(
    const ModelSnapshot& parent, std::span<const OodSample> round,
    std::span<const std::pair<int, double>> usage,
    const LifecycleConfig& config, std::uint64_t next_version) {
  AdaptationOutcome out;
  if (round.empty()) return out;
  SmoreModel next = parent.model->clone();
  HvMatrix block(round.size(), next.dim());
  std::vector<int> labels(round.size());
  for (std::size_t i = 0; i < round.size(); ++i) {
    block.set_row(i, round[i].hv);
    labels[i] = round[i].pseudo_label;
  }
  DomainLifecycle engine(config);
  out.lifecycle = engine.run_round(next, block.view(), labels, usage);
  out.next =
      ModelSnapshot::next_generation(parent, std::move(next), next_version);
  return out;
}

}  // namespace smore
