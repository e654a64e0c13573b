#pragma once
// Binarized HDC inference (extension beyond the paper; see DESIGN.md §8).
//
// Edge HDC deployments commonly sign-quantize trained class hypervectors to
// single bits and replace cosine similarity with Hamming distance computed
// by XOR + popcount: a d=8192 model shrinks 32× (float -> bit) and a
// similarity query touches d/64 machine words instead of d floats. Accuracy
// typically drops by a small margin — quantified in
// bench_ablation_encoding's companion test and the edge example.
//
// BinaryModel quantizes any trained OnlineHDClassifier into a packed
// BitMatrix and predicts through the blocked Hamming kernels
// (ops::hamming_matrix); scalar predict calls are batches of one.
// BinaryVector remains as the one-vector scalar reference — the equivalence
// tests pin the blocked kernels to its word-at-a-time loop bit for bit.
// For the quantized form of a full SMORE model (descriptors + per-domain
// class banks + the test-time ensemble), see core/binary_smore.hpp.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/bit_matrix.hpp"
#include "hdc/hv_dataset.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/onlinehd.hpp"

namespace smore {

/// A hypervector sign-quantized to packed bits (1 = positive).
class BinaryVector {
 public:
  BinaryVector() = default;

  /// Quantize a real hypervector: bit j = (v[j] >= 0).
  explicit BinaryVector(std::span<const float> values);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Bit j as 0/1.
  [[nodiscard]] int bit(std::size_t j) const noexcept {
    return static_cast<int>((words_[j >> 6] >> (j & 63)) & 1u);
  }

  /// Hamming distance to another vector of the same dimension.
  /// Throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::size_t hamming(const BinaryVector& other) const;

  /// Normalized similarity in [-1, 1]: 1 - 2·hamming/d (the binary analogue
  /// of cosine — equals the expected cosine of the underlying bipolar
  /// vectors).
  [[nodiscard]] double similarity(const BinaryVector& other) const;

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

 private:
  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Sign-quantized multi-class model: Hamming-distance argmin prediction over
/// a packed [num_classes × dim] BitMatrix, batch-first like its float
/// counterpart (OnlineHDClassifier::predict_batch).
class BinaryModel {
 public:
  /// Quantize every class vector of a trained classifier.
  explicit BinaryModel(const OnlineHDClassifier& model);

  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(classes_.rows());
  }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Model size in bytes (the packed class-vector block).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return classes_.bytes();
  }

  /// Predict from a raw (float) query: the query is quantized on the fly.
  /// Thin wrapper over a batch of one.
  [[nodiscard]] int predict(std::span<const float> hv) const;

  /// Predict from an already-quantized query (scalar-reference path).
  [[nodiscard]] int predict(const BinaryVector& query) const;

  /// Hamming-argmin label per packed query row: one blocked XOR+popcount
  /// kernel over the class block instead of a per-query loop. Ties resolve
  /// to the lowest class index (matching scalar predict).
  /// Throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::vector<int> predict_batch(BitView queries) const;

  /// Quantize a float query block (ops::sign_pack_matrix) and predict it.
  [[nodiscard]] std::vector<int> predict_batch(HvView queries) const;

  /// Accuracy of pre-packed queries against aligned labels — the hot
  /// evaluate path on device, where the query block is quantized once and
  /// scored many times. Throws std::invalid_argument on arity mismatch.
  [[nodiscard]] double evaluate(BitView queries,
                                std::span<const int> labels) const;

  /// Fraction of `data` classified correctly (quantize + batched predict).
  [[nodiscard]] double accuracy(const HvDataset& data) const;

 private:
  std::size_t dim_ = 0;
  BitMatrix classes_;
};

}  // namespace smore
