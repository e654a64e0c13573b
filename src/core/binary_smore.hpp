#pragma once
// BinarySmoreModel: a trained SMORE model sign-quantized to packed bits
// (extension beyond the paper; DESIGN.md §8).
//
// Everything Algorithm 1 touches at inference time is packed: the K domain
// descriptors U_k, the K per-domain class banks {C_c^k}, and the query
// block. All similarities become normalized Hamming similarities
// (1 - 2·hamming/d, the binary analogue of cosine), so the whole pipeline —
// OOD detection (δ* thresholding, step E), similarity-derived ensemble
// weights (step F), and the ensembled argmax (step G) — runs on XOR+popcount
// kernels over d/64-word rows. The model is ~32× smaller than its float
// parent and the query path touches no floats after quantization.
//
// One deliberate divergence from the float path: step G. The float model
// ensembles class *vectors* (Σ_k w_k C_c^k) and cosines the query against
// the sum; packed bits cannot form that weighted sum, so the binary model
// ensembles class *similarities* instead — score(c) = Σ_k w_k·δ_H(Q, C_c^k).
// Because Hamming similarities are already normalized to [-1, 1], this is
// the natural packed reading of Eq. 3; the quantized-vs-float accuracy gap
// is bounded by a tier-1 test and reported by the edge example.
//
// δ* transfers from the float model by default, but Hamming similarities
// live on a (slightly) different scale than cosine; calibrate_delta_star
// re-derives the threshold from in-distribution data, exactly like
// SmoreModel::calibrate_delta_star.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/ood.hpp"
#include "core/smore.hpp"
#include "core/test_time_model.hpp"
#include "hdc/bit_matrix.hpp"
#include "hdc/hv_dataset.hpp"
#include "hdc/hv_matrix.hpp"

namespace smore {

/// The packed-binary SMORE classifier: quantize once, serve on Hamming.
class BinarySmoreModel {
 public:
  /// Sign-quantize a trained model (descriptors, per-domain class vectors,
  /// δ*, weight mode). Throws std::logic_error when `model` is untrained.
  explicit BinarySmoreModel(const SmoreModel& model);

  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t num_domains() const noexcept {
    return descriptors_.rows();
  }
  [[nodiscard]] double delta_star() const noexcept {
    return detector_.delta_star();
  }

  /// Packed model size in bytes: descriptor block + class banks.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return descriptors_.bytes() + class_bank_.bytes();
  }

  /// The packed descriptor block [K × dim] (footprint reports).
  [[nodiscard]] const BitMatrix& descriptor_bits() const noexcept {
    return descriptors_;
  }
  /// The packed class banks [K·num_classes × dim], row k·num_classes + c.
  [[nodiscard]] const BitMatrix& class_bank_bits() const noexcept {
    return class_bank_;
  }

  /// Adjust δ* after quantization (mirrors SmoreModel::set_delta_star).
  void set_delta_star(double delta_star);

  /// Calibrate δ* on the Hamming-similarity scale: sets the threshold at the
  /// `target_ood_rate` quantile of max-descriptor-similarity over
  /// `in_distribution` (see SmoreModel::calibrate_delta_star — same
  /// contract, packed arithmetic). Returns the chosen δ*.
  double calibrate_delta_star(const HvDataset& in_distribution,
                              double target_ood_rate = 0.05);

  /// Algorithm 1 (packed) for one float query: quantize + batch of one.
  [[nodiscard]] int predict(std::span<const float> hv) const;

  /// Quantize a float query block (ops::sign_pack_matrix) and predict it.
  [[nodiscard]] std::vector<int> predict_batch(HvView queries) const;

  /// Algorithm 1 over a pre-packed query block: descriptor Hamming
  /// similarities, OOD verdicts, and the similarity-ensembled argmax, each
  /// as one blocked XOR+popcount pass.
  [[nodiscard]] std::vector<int> predict_batch(BitView queries) const;

  /// predict_batch plus every per-query intermediate (OOD verdict, δ_max on
  /// the Hamming scale, ensemble weights) — the packed counterpart of
  /// SmoreModel::predict_batch_full, sharing its result type so the serving
  /// layer treats both backends uniformly.
  [[nodiscard]] SmoreBatchResult predict_batch_full(BitView queries) const;

  /// Float-query convenience: sign-pack the block, then predict_batch_full.
  [[nodiscard]] SmoreBatchResult predict_batch_full(HvView queries) const;

  /// Row-major [queries.rows × K] descriptor Hamming-similarity matrix
  /// δ_H(Q_i, U_k) — the packed input of OOD detection and weighting.
  [[nodiscard]] std::vector<double> similarities_batch(BitView queries) const;

  /// Accuracy and OOD rate of `data` in one packed pass (quantizes the
  /// block, then mirrors SmoreModel::evaluate).
  [[nodiscard]] SmoreEvaluation evaluate(const HvDataset& data) const;

  /// Accuracy and OOD rate of a pre-packed query block against aligned
  /// labels. Throws std::invalid_argument on arity mismatch.
  [[nodiscard]] SmoreEvaluation evaluate(BitView queries,
                                         std::span<const int> labels) const;

  /// Serialize the packed model (classes, dim, δ*, weight mode, domain
  /// count, descriptor words, class-bank words); load() reconstructs a
  /// ready-to-serve model
  /// without its float parent — what lets a server boot a packed snapshot
  /// straight from disk. Throws std::runtime_error on corrupt input.
  void save(std::ostream& out) const;
  static BinarySmoreModel load(std::istream& in);

 private:
  BinarySmoreModel() = default;  // load() builds the state field by field

  [[nodiscard]] std::vector<int> predict_batch_impl(
      BitView queries, std::vector<std::uint8_t>* ood_flags,
      SmoreBatchResult* full) const;

  int num_classes_ = 0;
  std::size_t dim_ = 0;
  WeightMode weight_mode_ = WeightMode::kStandardizedSoftmax;
  OodDetector detector_;
  BitMatrix descriptors_;  // [K × dim], ascending domain-id order
  BitMatrix class_bank_;   // [K·num_classes × dim], row k·num_classes + c
};

}  // namespace smore
