// The one-layer parameter payload: SaveParameters writes it and
// LoadInferenceModel, the one reader, restores an inference-equivalent
// model from it.
#include "rbm/serialize.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "rbm/grbm.h"
#include "rbm/rbm.h"

namespace mcirbm::rbm {
namespace {

RbmConfig Config() {
  RbmConfig cfg;
  cfg.num_visible = 5;
  cfg.num_hidden = 3;
  cfg.seed = 11;
  return cfg;
}

// A plain model under another stored name, as the sls variants (core
// layer) write theirs.
template <typename Base>
class Renamed : public Base {
 public:
  Renamed(const RbmConfig& config, std::string name)
      : Base(config), name_(std::move(name)) {}
  std::string name() const override { return name_; }

 private:
  std::string name_;
};

std::string Payload(const RbmBase& model) {
  std::ostringstream out;
  EXPECT_TRUE(SaveParameters(model, out).ok());
  return out.str();
}

TEST(SerializeTest, RoundTripIsBitExact) {
  Rbm original(Config());
  // Perturb parameters so they differ from a fresh init.
  (*original.mutable_weights())(2, 1) = 0.123456789012345;
  (*original.mutable_visible_bias())[4] = -2.5;
  (*original.mutable_hidden_bias())[0] = 1e-7;

  std::istringstream in(Payload(original));
  auto restored = LoadInferenceModel(in, "payload");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value()->weights().AllClose(original.weights(), 0));
  EXPECT_EQ(restored.value()->visible_bias(), original.visible_bias());
  EXPECT_EQ(restored.value()->hidden_bias(), original.hidden_bias());
  // Saving the restored model writes the same bytes.
  EXPECT_EQ(Payload(*restored.value()), Payload(original));
}

// The stored name picks the reconstruction: linear for the grbm family,
// sigmoid otherwise. The sls variants load as their plain bases.
TEST(SerializeTest, StoredNameChoosesTheModel) {
  const Grbm grbm(Config());
  const Rbm rbm(Config());
  const Renamed<Grbm> sls_grbm(Config(), "sls-grbm");
  const Renamed<Rbm> sls_rbm(Config(), "sls-rbm");
  const struct {
    const RbmBase* model;
    const char* loads_as;
  } cases[] = {{&grbm, "grbm"},
               {&rbm, "rbm"},
               {&sls_grbm, "grbm"},
               {&sls_rbm, "rbm"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.model->name());
    std::istringstream in(Payload(*c.model));
    auto loaded = LoadInferenceModel(in, "payload");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->name(), c.loads_as);
    if (std::string(c.loads_as) == "grbm") {
      EXPECT_NE(dynamic_cast<const Grbm*>(loaded.value().get()), nullptr);
    } else {
      EXPECT_NE(dynamic_cast<const Rbm*>(loaded.value().get()), nullptr);
    }
    EXPECT_TRUE(loaded.value()->weights().AllClose(c.model->weights(), 0));
  }
}

TEST(SerializeTest, BadMagicRejected) {
  std::istringstream in("not-an-rbm-payload\n");
  const auto loaded = LoadInferenceModel(in, "payload");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("payload: bad magic header"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SerializeTest, TruncatedPayloadRejected) {
  const std::string payload = Payload(Rbm(Config()));
  // Cut in the middle of the W block.
  std::istringstream in(payload.substr(0, payload.size() * 2 / 3));
  const auto loaded = LoadInferenceModel(in, "payload");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

// A diverged model writes "-nan", which the loader cannot read back; the
// error names the block and the entry that failed, not the next tag.
TEST(SerializeTest, UnreadableValueNamesItsBlockAndEntry) {
  const std::string header = std::string(kRbmMagic) + "\ngrbm\n2 2\n";
  const struct {
    std::string body;
    std::string expected;
  } cases[] = {
      {"a: 0.5 -nan\nb: 1 2\nW:\n1 2\n3 4\n", "block 'a:' entry 1"},
      {"a: 0.5 1\nb: 1 2\nW:\n1 2\n-nan 4\n", "block 'W:' entry 2"},
  };
  for (const auto& c : cases) {
    std::istringstream in(header + c.body);
    const auto loaded = LoadInferenceModel(in, "model.txt");
    ASSERT_FALSE(loaded.ok()) << c.body;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(c.expected), std::string::npos)
        << loaded.status().message();
  }
}

}  // namespace
}  // namespace mcirbm::rbm
