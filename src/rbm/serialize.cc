#include "rbm/serialize.h"

#include <istream>
#include <ostream>

#include "rbm/grbm.h"
#include "rbm/rbm.h"
#include "util/string_util.h"

namespace mcirbm::rbm {

const char kRbmMagic[] = "mcirbm-rbm v1";

Status SaveParameters(const RbmBase& model, std::ostream& out) {
  out << kRbmMagic << "\n" << model.name() << "\n";
  const auto& w = model.weights();
  out << w.rows() << " " << w.cols() << "\n";
  // Each line is formatted into one reused buffer, doubles as %.17g.
  std::string line;
  const auto write_line = [&out, &line] {
    line.push_back('\n');
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    line.clear();
  };
  line = "a:";
  for (double v : model.visible_bias()) {
    line.push_back(' ');
    AppendRoundTripDouble(v, &line);
  }
  write_line();
  line = "b:";
  for (double v : model.hidden_bias()) {
    line.push_back(' ');
    AppendRoundTripDouble(v, &line);
  }
  write_line();
  line = "W:";
  write_line();
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t c = 0; c < w.cols(); ++c) {
      if (c) line.push_back(' ');
      AppendRoundTripDouble(w(r, c), &line);
    }
    write_line();
  }
  if (!out) return Status::IoError("parameter write failed");
  return Status::Ok();
}

namespace {

// Parses the "magic / name / nv nh" preamble.
Status ReadHeader(std::istream& in, const std::string& context,
                  std::string* name, std::size_t* nv, std::size_t* nh) {
  std::string line;
  if (!std::getline(in, line) || line != kRbmMagic) {
    return Status::ParseError(context + ": bad magic header");
  }
  if (!std::getline(in, *name) || name->empty()) {
    return Status::ParseError(context + ": missing model name");
  }
  in >> *nv >> *nh;
  if (!in) return Status::ParseError(context + ": bad shape line");
  if (*nv == 0 || *nh == 0) {
    return Status::ParseError(context + ": degenerate shape");
  }
  // Bound the dimensions before they are narrowed to int (and before the
  // weight matrix is allocated): a corrupted shape line must surface as a
  // parse error, not signed-overflow UB or an allocation failure.
  constexpr std::size_t kMaxDim = 1u << 24;
  constexpr std::size_t kMaxElements = 1u << 28;
  if (*nv > kMaxDim || *nh > kMaxDim || *nv > kMaxElements / *nh) {
    return Status::ParseError(context + ": implausible shape " +
                              std::to_string(*nv) + "x" +
                              std::to_string(*nh));
  }
  return Status::Ok();
}

// Reads one tagged block of `count` values into `out`. The stream is
// checked after every value, so a value that does not parse (such as the
// "-nan" a diverged model writes) is reported by block and entry index.
Status ReadBlock(std::istream& in, const std::string& context,
                 const std::string& tag, std::size_t count, double* out) {
  std::string got;
  in >> got;
  if (got != tag) {
    return Status::ParseError(context + ": expected '" + tag + "'");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!(in >> out[i])) {
      return Status::ParseError(context + ": block '" + tag + "' entry " +
                                std::to_string(i) + " is missing or not a "
                                "finite number");
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<RbmBase>> LoadInferenceModel(
    std::istream& in, const std::string& context) {
  std::string stored_name;
  std::size_t nv = 0, nh = 0;
  Status status = ReadHeader(in, context, &stored_name, &nv, &nh);
  if (!status.ok()) return status;

  RbmConfig config;
  config.num_visible = static_cast<int>(nv);
  config.num_hidden = static_cast<int>(nh);
  std::unique_ptr<RbmBase> model;
  if (stored_name.find("grbm") != std::string::npos) {
    model = std::make_unique<Grbm>(config);
  } else {
    model = std::make_unique<Rbm>(config);
  }
  status = ReadBlock(in, context, "a:", nv,
                     model->mutable_visible_bias()->data());
  if (!status.ok()) return status;
  status = ReadBlock(in, context, "b:", nh,
                     model->mutable_hidden_bias()->data());
  if (!status.ok()) return status;
  status = ReadBlock(in, context, "W:", nv * nh,
                     model->mutable_weights()->data());
  if (!status.ok()) return status;
  return model;
}

}  // namespace mcirbm::rbm
