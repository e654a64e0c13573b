#include "serve/snapshot.hpp"

#include <istream>
#include <stdexcept>
#include <utility>

#include "core/pipeline.hpp"
#include "serve/backend.hpp"

namespace smore {

std::shared_ptr<const ModelSnapshot> ModelSnapshot::make(
    SmoreModel model, bool quantize, std::uint64_t version,
    std::shared_ptr<const Encoder> encoder) {
  auto float_model = std::make_shared<const SmoreModel>(std::move(model));
  float_model->prepare_serving();
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = version;
  snap->model = float_model;
  snap->encoder = std::move(encoder);
  if (quantize) {
    snap->packed = std::make_shared<const BinarySmoreModel>(*float_model);
  }
  snap->backend = make_serving_backend(snap->model, snap->packed);
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::make(
    const Pipeline& pipeline, std::uint64_t version, bool prefer_packed) {
  auto float_model =
      std::make_shared<const SmoreModel>(pipeline.model().clone());
  float_model->prepare_serving();
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = version;
  snap->model = float_model;
  snap->encoder = pipeline.encoder_ptr();
  if (prefer_packed && pipeline.quantized()) {
    if (pipeline.packed_calibration_stale()) {
      // Serving this would apply the cosine-scale float δ* to Hamming
      // similarities — the broken operating point would then propagate
      // through every adapted generation via next_generation's carry-over.
      throw std::logic_error(
          "ModelSnapshot::make: the pipeline's packed δ* is stale — call "
          "Pipeline::calibrate() after quantize()");
    }
    // Copy (don't re-quantize): the pipeline's packed model may carry its
    // own Hamming-scale δ* from Pipeline::calibrate.
    snap->packed = std::make_shared<const BinarySmoreModel>(*pipeline.packed());
  }
  snap->backend = make_serving_backend(snap->model, snap->packed);
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::next_generation(
    const ModelSnapshot& parent, SmoreModel model, std::uint64_t version) {
  auto float_model = std::make_shared<const SmoreModel>(std::move(model));
  float_model->prepare_serving();
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = version;
  snap->model = float_model;
  snap->encoder = parent.encoder;
  if (parent.packed != nullptr) {
    auto packed = std::make_unique<BinarySmoreModel>(*float_model);
    // The fresh quantization inherits the float (cosine-scale) δ*; the
    // parent's packed detector may have been calibrated on the Hamming
    // scale — keep that operating point.
    packed->set_delta_star(parent.packed->delta_star());
    snap->packed = std::move(packed);
  }
  snap->backend = make_serving_backend(snap->model, snap->packed);
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::from_artifact(
    std::istream& in, std::uint64_t version) {
  return make(Pipeline::load(in), version);
}

}  // namespace smore
