// Differential tests of the snapshot number codec (util/text_codec.h)
// against the iostream codec it replaced: the bytes written must be the
// same, values must parse to the same bits, and the reader must reject at
// least every token `istream >>` rejects. Random inputs are replayable via
// LITE_TEST_SEED.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/serialization.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "testkit/gen.h"
#include "util/rng.h"
#include "util/text_codec.h"

namespace lite {
namespace {

std::string SeedNote() {
  return "replay with: LITE_TEST_SEED=" +
         std::to_string(testkit::SeedFromEnv());
}

// Bit pattern of a float or double (float widens exactly).
template <typename T>
uint64_t Bits(T v) {
  return std::bit_cast<uint64_t>(static_cast<double>(v));
}

template <typename T>
std::string StreamWrite(T v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

template <typename T>
std::string CodecWrite(T v) {
  TextWriter w;
  w.Put(v);
  return w.Take();
}

// The old reader's verdict on one whole token: `istream >>` must succeed
// and leave only whitespace behind.
template <typename T>
bool StreamRead(const std::string& token, T* v) {
  std::istringstream is(token);
  if (!(is >> *v)) return false;
  is >> std::ws;
  return is.eof();
}

template <typename T>
bool CodecRead(const std::string& token, T* v) {
  TextReader r(token);
  return r.Get(v) && r.AtEnd();
}

// Random bit patterns cover every exponent, subnormals included; the edge
// list pins the extremes.
std::vector<float> SomeFloats(Rng* rng, size_t n) {
  std::vector<float> out = {0.0f,
                            -0.0f,
                            1.0f,
                            0.1f,
                            -2.5e-3f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::bit_cast<float>(uint32_t{0x007fffff}),
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            16777216.0f,
                            1e9f};
  while (out.size() < n) {
    uint32_t bits = static_cast<uint32_t>(rng->gen()());
    if (out.size() % 4 == 0) bits &= 0x807fffffu;  // force a subnormal.
    float v = std::bit_cast<float>(bits);
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

std::vector<double> SomeDoubles(Rng* rng, size_t n) {
  std::vector<double> out = {0.0,
                             -0.0,
                             1.0,
                             0.1,
                             1e22,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::bit_cast<double>(uint64_t{0x000fffffffffffff}),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             9007199254740993.0};
  while (out.size() < n) {
    uint64_t bits = rng->gen()();
    if (out.size() % 4 == 0) bits &= 0x800fffffffffffffull;
    double v = std::bit_cast<double>(bits);
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

template <typename T>
void ExpectSameBytesAndBits(const std::vector<T>& values, int precision) {
  for (T v : values) {
    std::string old_text = StreamWrite(v, precision);
    std::string new_text = CodecWrite(v);
    ASSERT_EQ(new_text, old_text) << SeedNote();
    T old_v{}, new_v{};
    ASSERT_TRUE(StreamRead(old_text, &old_v)) << old_text;
    ASSERT_TRUE(CodecRead(new_text, &new_v)) << new_text << "; " << SeedNote();
    EXPECT_EQ(Bits(new_v), Bits(old_v)) << new_text;
    // Exact round trip, signed zero included.
    EXPECT_EQ(Bits(new_v), Bits(v)) << new_text;
  }
}

TEST(TextCodecTest, FloatsMatchStreamBytesAndBits) {
  Rng rng(testkit::SeedFromEnv() + 1);
  ExpectSameBytesAndBits(SomeFloats(&rng, 200000), 9);
}

TEST(TextCodecTest, DoublesMatchStreamBytesAndBits) {
  Rng rng(testkit::SeedFromEnv() + 2);
  ExpectSameBytesAndBits(SomeDoubles(&rng, 200000), 17);
}

TEST(TextCodecTest, IntegersMatchStreamBytesAndValues) {
  Rng rng(testkit::SeedFromEnv() + 3);
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng.gen()() >> (rng.gen()() % 64);
    size_t u = static_cast<size_t>(bits);
    int s = static_cast<int>(static_cast<uint32_t>(bits));
    long l = static_cast<long>(bits) * ((i % 2) ? -1 : 1);
    ASSERT_EQ(CodecWrite(u), StreamWrite(u, 6));
    ASSERT_EQ(CodecWrite(s), StreamWrite(s, 6));
    ASSERT_EQ(CodecWrite(l), StreamWrite(l, 6));
    size_t u2 = 0;
    int s2 = 0;
    long l2 = 0;
    ASSERT_TRUE(CodecRead(CodecWrite(u), &u2));
    ASSERT_TRUE(CodecRead(CodecWrite(s), &s2));
    ASSERT_TRUE(CodecRead(CodecWrite(l), &l2));
    EXPECT_EQ(u2, u);
    EXPECT_EQ(s2, s);
    EXPECT_EQ(l2, l);
  }
}

// Every token the codec accepts, the stream accepted with the same value;
// so the codec rejects at least everything the stream rejected.
template <typename T>
void ExpectRejectsAtLeastAsStream(const std::vector<std::string>& tokens) {
  for (const std::string& tok : tokens) {
    T old_v{}, new_v{};
    bool old_ok = StreamRead(tok, &old_v);
    bool new_ok = CodecRead(tok, &new_v);
    if (!new_ok) continue;
    EXPECT_TRUE(old_ok) << "codec accepted '" << tok
                        << "' which the stream rejects; " << SeedNote();
    if constexpr (std::is_floating_point_v<T>) {
      EXPECT_EQ(Bits(new_v), Bits(old_v)) << tok;
    } else {
      EXPECT_EQ(new_v, old_v) << tok;
    }
  }
}

TEST(TextCodecTest, RejectsAtLeastWhatTheStreamRejects) {
  std::vector<std::string> tokens = {
      "", " ", "nan", "-nan", "NaN", "inf", "-inf", "infinity", "1e39",
      "-1e39", "1e309", "-1e309", "1e-50", "1.5x", "1.5e", "1e+", "abc",
      "--1", "+-1", "0x10", "0x1p3", "1,5", "1..5", ".", "-", "+", "e5",
      "2147483648", "-2147483649", "18446744073709551616", "-1", "+7",
      ".5", "5.", "-0", "00012", "1E5", "-.5e-3", "3.4028236e38",
      "1.40129846e-45", "4.9406564584124654e-324", "12 34"};
  Rng rng(testkit::SeedFromEnv() + 4);
  const std::string alphabet = "0123456789.-+eEinfaxINF ";
  for (int i = 0; i < 20000; ++i) {
    std::string tok;
    size_t len = 1 + rng.gen()() % 8;
    for (size_t c = 0; c < len; ++c) {
      tok.push_back(alphabet[rng.gen()() % alphabet.size()]);
    }
    tokens.push_back(tok);
  }
  ExpectRejectsAtLeastAsStream<float>(tokens);
  ExpectRejectsAtLeastAsStream<double>(tokens);
  ExpectRejectsAtLeastAsStream<int>(tokens);
  ExpectRejectsAtLeastAsStream<long>(tokens);
  ExpectRejectsAtLeastAsStream<size_t>(tokens);

  // Non-finite values and overflow never load, whatever the spelling.
  for (const char* tok : {"nan", "inf", "-inf", "infinity", "1e39"}) {
    float v = 0.0f;
    EXPECT_FALSE(CodecRead(tok, &v)) << tok;
  }
  double d = 0.0;
  EXPECT_FALSE(CodecRead("1e309", &d));
  EXPECT_FALSE(CodecRead("nan", &d));
}

// Whole-document byte identity: parameter tensors and trees render exactly
// as the stream writers rendered them.
std::string StreamSerializeParams(const std::vector<VarPtr>& params) {
  std::ostringstream out;
  out << params.size() << "\n";
  out.precision(9);
  for (const auto& p : params) {
    out << p->value.rank();
    for (size_t d : p->value.shape()) out << " " << d;
    out << "\n";
    for (size_t i = 0; i < p->numel(); ++i) {
      out << p->value[i] << (i + 1 == p->numel() ? "\n" : " ");
    }
  }
  return out.str();
}

std::string StreamSerializeTree(const DecisionTreeRegressor& tree) {
  std::ostringstream os;
  os << "litemodel v1 tree\n";
  os.precision(17);
  os << tree.nodes().size() << "\n";
  for (const auto& n : tree.nodes()) {
    os << n.feature << " " << n.threshold << " " << n.value << " " << n.left
       << " " << n.right << "\n";
  }
  return os.str();
}

TEST(TextCodecTest, DocumentsMatchStreamWriters) {
  Rng rng(testkit::SeedFromEnv() + 5);
  Mlp mlp(26, 3, 1, &rng);
  // Subnormal and signed-zero weights ride along with the random init.
  mlp.Params()[0]->value[0] = std::numeric_limits<float>::denorm_min();
  mlp.Params()[0]->value[1] = -0.0f;
  std::string text = SerializeParams(mlp.Params());
  ASSERT_EQ(text, StreamSerializeParams(mlp.Params()));
  Mlp other(26, 3, 1, &rng);
  ASSERT_TRUE(DeserializeParams(text, other.Params()));
  EXPECT_EQ(SerializeParams(other.Params()), text);
  // Truncation at any point and trailing garbage are rejected.
  for (size_t cut = 0; cut + 1 < text.size(); cut += 97) {
    EXPECT_FALSE(DeserializeParams(text.substr(0, cut), other.Params()))
        << "cut " << cut;
  }
  EXPECT_FALSE(DeserializeParams(text + "7\n", other.Params()));

  std::vector<std::vector<double>> x(300, std::vector<double>(3));
  std::vector<double> y;
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform() * 1e-300;
    y.push_back(row[0] - row[1] * 1e300);
  }
  DecisionTreeRegressor tree;
  tree.Fit(x, y, &rng);
  TextWriter out;
  SerializeTree(tree, &out);
  EXPECT_EQ(out.str(), StreamSerializeTree(tree));
}

}  // namespace
}  // namespace lite
