// Text (de)serialization of one RBM layer's parameters: the payload that
// api::Model (api/model.h) writes once per layer after its own header.
//
// Format (line oriented, locale-independent):
//   mcirbm-rbm v1
//   <model-name>
//   <num_visible> <num_hidden>
//   a: <nv doubles>
//   b: <nh doubles>
//   W: nv lines of nh doubles
//
// A payload on its own is not a model file: api::Model::Load rejects a
// file that starts with this magic line.
#ifndef MCIRBM_RBM_SERIALIZE_H_
#define MCIRBM_RBM_SERIALIZE_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "rbm/rbm_base.h"
#include "util/status.h"

namespace mcirbm::rbm {

/// The payload magic line ("mcirbm-rbm v1").
extern const char kRbmMagic[];

/// Writes `model`'s parameters to `out`, doubles as %.17g.
Status SaveParameters(const RbmBase& model, std::ostream& out);

/// Reads one payload from `in`, starting at its magic line, and
/// reconstructs an inference-equivalent model sized from the stored
/// shape: the stored name chooses sigmoid vs linear reconstruction (sls
/// variants are inference-identical to their plain bases, so they load as
/// Rbm/Grbm). Stops right after the last W value. `context` labels errors.
StatusOr<std::unique_ptr<RbmBase>> LoadInferenceModel(
    std::istream& in, const std::string& context);

}  // namespace mcirbm::rbm

#endif  // MCIRBM_RBM_SERIALIZE_H_
