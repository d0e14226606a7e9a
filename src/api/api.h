// Umbrella header for the mcirbm public facade.
//
// The api module is the single entry point consumers should need:
//
//   - clustering::ClustererRegistry — the string-keyed clusterer factory
//     (clustering/registry.h);
//   - api::Model — versioned Train/Save/Load/Transform/Evaluate artifact,
//     and the model names (rbm|grbm|sls-rbm|sls-grbm) its `kind:` line,
//     the `model` config key and the CLI share (api/model.h);
//   - api::ParseConfig / api::ParsePipelineSpec / api::RunPipeline —
//     key=value configuration and the one-shot pipeline (api/config.h).
//
// Everything fallible on this surface reports through Status/StatusOr;
// nothing here aborts on user input.
#ifndef MCIRBM_API_API_H_
#define MCIRBM_API_API_H_

#include "api/config.h"
#include "api/model.h"
#include "clustering/registry.h"
#include "core/pipeline.h"
#include "util/param_map.h"
#include "util/status.h"

#endif  // MCIRBM_API_API_H_
