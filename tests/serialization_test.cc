// Persistence roundtrips: trees, forests, GBDT ensembles, vocabularies, and
// full LiteSystem snapshots.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "lite/snapshot.h"
#include "lite/vocab.h"
#include "ml/serialization.h"
#include "sparksim/dag.h"
#include "testkit/temp_dir.h"

namespace lite {
namespace {

std::vector<std::vector<double>> MakeX(Rng* rng, size_t n, size_t dims) {
  std::vector<std::vector<double>> x(n, std::vector<double>(dims));
  for (auto& row : x) {
    for (double& v : row) v = rng->Uniform();
  }
  return x;
}

TEST(SerializationTest, TreeRoundtrip) {
  Rng rng(1);
  auto x = MakeX(&rng, 200, 3);
  std::vector<double> y;
  for (const auto& row : x) y.push_back(2 * row[0] - row[1] + 0.5 * row[2]);
  DecisionTreeRegressor tree;
  tree.Fit(x, y, &rng);

  TextWriter out;
  SerializeTree(tree, &out);
  TextReader in(out.str());
  DecisionTreeRegressor loaded;
  ASSERT_TRUE(DeserializeTree(&in, &loaded));
  EXPECT_EQ(loaded.NumNodes(), tree.NumNodes());
  for (int i = 0; i < 50; ++i) {
    std::vector<double> q{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    EXPECT_DOUBLE_EQ(loaded.Predict(q), tree.Predict(q));
  }
}

TEST(SerializationTest, ForestRoundtripViaFile) {
  Rng rng(2);
  auto x = MakeX(&rng, 150, 2);
  std::vector<double> y;
  for (const auto& row : x) y.push_back(row[0] * row[1]);
  RandomForestRegressor forest(ForestOptions{.num_trees = 8});
  forest.Fit(x, y, &rng);

  testkit::ScopedTempDir tmp("forest");
  std::string path = tmp.Sub("forest.txt");
  ASSERT_TRUE(SaveForestToFile(forest, path));
  RandomForestRegressor loaded;
  ASSERT_TRUE(LoadForestFromFile(path, &loaded));
  EXPECT_EQ(loaded.NumTrees(), 8u);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> q{rng.Uniform(), rng.Uniform()};
    EXPECT_DOUBLE_EQ(loaded.Predict(q), forest.Predict(q));
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, GbdtRoundtrip) {
  Rng rng(3);
  auto x = MakeX(&rng, 200, 2);
  std::vector<double> y;
  for (const auto& row : x) y.push_back(std::sin(4 * row[0]) + row[1]);
  GbdtRegressor gbdt(GbdtOptions{.num_rounds = 20});
  gbdt.Fit(x, y, &rng);

  TextWriter out;
  SerializeGbdt(gbdt, &out);
  TextReader in(out.str());
  GbdtRegressor loaded;
  ASSERT_TRUE(DeserializeGbdt(&in, &loaded));
  for (int i = 0; i < 20; ++i) {
    std::vector<double> q{rng.Uniform(), rng.Uniform()};
    EXPECT_DOUBLE_EQ(loaded.Predict(q), gbdt.Predict(q));
  }
}

TEST(SerializationTest, RejectsCorruptInput) {
  TextReader bad1("nonsense");
  DecisionTreeRegressor t;
  EXPECT_FALSE(DeserializeTree(&bad1, &t));
  // Out-of-range child index.
  TextReader bad2("litemodel v1 tree\n1\n0 0.5 1.0 5 6\n");
  EXPECT_FALSE(DeserializeTree(&bad2, &t));
  // Split node without children.
  TextReader bad3("litemodel v1 tree\n1\n0 0.5 1.0 -1 -1\n");
  EXPECT_FALSE(DeserializeTree(&bad3, &t));
  RandomForestRegressor f;
  TextReader bad4("litemodel v1 gbdt\n0 0 0\n");
  EXPECT_FALSE(DeserializeForest(&bad4, &f));
}

TEST(SerializationTest, TokenVocabRoundtrip) {
  TokenVocab v = TokenVocab::Build({{"map", "map", "filter", "(", ")"}});
  std::stringstream ss;
  v.Serialize(&ss);
  TokenVocab loaded;
  ASSERT_TRUE(TokenVocab::Deserialize(&ss, &loaded));
  EXPECT_EQ(loaded.size(), v.size());
  EXPECT_EQ(loaded.IdOf("map"), v.IdOf("map"));
  EXPECT_EQ(loaded.IdOf("unknown-token"), TokenVocab::kOovId);
}

TEST(SerializationTest, OpVocabRoundtrip) {
  std::vector<const spark::ApplicationSpec*> apps;
  for (const auto& a : spark::AppCatalog::All()) apps.push_back(&a);
  spark::OpVocab v = spark::OpVocab::FromApplications(apps);
  std::stringstream ss;
  v.Serialize(&ss);
  spark::OpVocab loaded;
  ASSERT_TRUE(spark::OpVocab::Deserialize(&ss, &loaded));
  EXPECT_EQ(loaded.size(), v.size());
  EXPECT_EQ(loaded.IdOf("map"), v.IdOf("map"));
  EXPECT_EQ(loaded.IdOf("zzz"), static_cast<int>(loaded.size()));
}

TEST(SnapshotTest, SaveLoadRecommendAgrees) {
  spark::SparkRunner runner;
  LiteOptions opts;
  opts.corpus.apps = {"TS", "PR", "KM"};
  opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  opts.corpus.configs_per_setting = 2;
  opts.corpus.max_stage_instances_per_run = 5;
  opts.corpus.max_code_tokens = 64;
  opts.necs.emb_dim = 8;
  opts.necs.cnn_widths = {3, 4};
  opts.necs.cnn_kernels = 6;
  opts.necs.code_dim = 12;
  opts.necs.gcn_hidden = 8;
  opts.train.epochs = 4;
  opts.num_candidates = 20;
  opts.ensemble_size = 2;
  LiteSystem system(&runner, opts);
  system.TrainOffline();

  testkit::ScopedTempDir tmp("lite_snapshot");
  std::string dir = tmp.Sub("lite_snapshot");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveSnapshot(system, dir));

  auto loaded = LoadedLiteModel::Load(dir, &runner);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->ensemble_size(), 2u);

  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  spark::ClusterEnv env = spark::ClusterEnv::ClusterA();
  LiteSystem::Recommendation orig = system.Recommend(*app, data, env);
  LiteSystem::Recommendation restored = loaded->Recommend(*app, data, env);
  // Identical candidate stream (same seed) + identical weights => identical
  // recommendation.
  EXPECT_EQ(restored.config, orig.config);
  EXPECT_NEAR(restored.predicted_seconds, orig.predicted_seconds,
              1e-4 * (1.0 + orig.predicted_seconds));
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, LoadRejectsMissingDir) {
  spark::SparkRunner runner;
  EXPECT_EQ(LoadedLiteModel::Load("/nonexistent/dir/xyz", &runner), nullptr);
}

TEST(SnapshotTest, SaveRequiresTrainedSystem) {
  spark::SparkRunner runner;
  LiteSystem system(&runner, LiteOptions{});
  testkit::ScopedTempDir tmp("untrained_snapshot");
  EXPECT_FALSE(SaveSnapshot(system, tmp.path()));
}

}  // namespace
}  // namespace lite
