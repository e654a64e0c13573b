#pragma once
// ModelSnapshot: one immutable serving model generation (DESIGN.md §9, §10).
//
// The serving runtime separates two mutation rates: queries arrive
// continuously, model updates arrive rarely (an adaptation round, an
// operator pushing a retrained model). RCU-style snapshots make the common
// path free: a worker grabs `shared_ptr<const ModelSnapshot>` once per
// micro-batch — a single lock-free atomic load from the tenant's swap point
// (TenantModel, serve/registry.hpp) — and predicts against state that can
// never change underneath it. Publication builds a complete new snapshot
// off to the side and swaps the pointer; readers holding the old snapshot
// keep it alive until their batch completes, so there is no moment at which
// a request can observe a half-updated model. Nothing is ever mutated in
// place and nothing is ever freed while referenced.
//
// A snapshot serves through ONE polymorphic `InferenceBackend` — the server
// never branches on which representation is underneath (the two adapters in
// serve/backend.hpp are the only code that names one). The concrete models
// ride along for the consumers that need them: the adaptation worker clones
// and extends the float parent, and re-quantizes when the snapshot carries a
// packed model. The encoder (when known, e.g. when the snapshot is built
// from a Pipeline) encodes the raw windows submitted for this model.

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "core/binary_smore.hpp"
#include "core/inference_backend.hpp"
#include "core/smore.hpp"
#include "hdc/encoder_base.hpp"

namespace smore {

class Pipeline;

/// One immutable serving model generation.
struct ModelSnapshot {
  std::uint64_t version = 0;  ///< monotonically increasing generation id
  std::shared_ptr<const SmoreModel> model;         ///< float parent
  std::shared_ptr<const BinarySmoreModel> packed;  ///< set when quantized
  std::shared_ptr<const Encoder> encoder;  ///< set when known (Pipeline boot)
  /// The serving interface: packed when `packed` is set, float otherwise.
  /// Never null after make().
  std::shared_ptr<const InferenceBackend> backend;

  /// Build a snapshot from a trained model: runs prepare_serving() so every
  /// lazy acceleration structure is materialized before the first concurrent
  /// reader, sign-packs a BinarySmoreModel when `quantize` is set, and
  /// installs the matching backend adapter. Throws std::logic_error when
  /// `model` is untrained.
  static std::shared_ptr<const ModelSnapshot> make(
      SmoreModel model, bool quantize, std::uint64_t version,
      std::shared_ptr<const Encoder> encoder = nullptr);

  /// Build a snapshot from a deployable Pipeline: clones the float model,
  /// copies the packed model when the pipeline is quantized (preserving its
  /// Hamming-scale δ* calibration) and `prefer_packed` is set, and shares
  /// the pipeline's encoder. Throws std::logic_error when untrained.
  static std::shared_ptr<const ModelSnapshot> make(const Pipeline& pipeline,
                                                   std::uint64_t version,
                                                   bool prefer_packed = true);

  /// Build generation `version` from an updated float model, keeping the
  /// parent generation's shape: re-quantized iff the parent was quantized —
  /// with the parent's packed δ* carried over (re-quantization would
  /// otherwise reset the detector to the cosine-scale float δ*, destroying
  /// a Hamming-scale calibration) — and the same shared encoder. The
  /// adaptation worker's republish path.
  static std::shared_ptr<const ModelSnapshot> next_generation(
      const ModelSnapshot& parent, SmoreModel model, std::uint64_t version);

  /// Boot a snapshot from a Pipeline artifact (Pipeline::save): encoder,
  /// model, δ*, and packed backend all come from the one file.
  static std::shared_ptr<const ModelSnapshot> from_artifact(
      std::istream& in, std::uint64_t version = 0);
};

}  // namespace smore
