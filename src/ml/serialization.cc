#include "ml/serialization.h"

#include "util/atomic_file.h"

namespace lite {

namespace {
constexpr char kMagic[] = "litemodel";
constexpr char kVersion[] = "v1";

bool ReadHeader(TextReader* in, std::string_view kind) {
  std::string_view magic, version, k;
  if (!in->Token(&magic) || !in->Token(&version) || !in->Token(&k)) {
    return false;
  }
  return magic == kMagic && version == kVersion && k == kind;
}

void WriteHeader(TextWriter* out, std::string_view kind) {
  out->Put(std::string_view(kMagic), ' ', std::string_view(kVersion), ' ',
           kind, '\n');
}
}  // namespace

void SerializeTree(const DecisionTreeRegressor& tree, TextWriter* out) {
  WriteHeader(out, "tree");
  const auto& nodes = tree.nodes();
  out->Put(nodes.size(), '\n');
  for (const auto& n : nodes) {
    out->Put(n.feature, ' ', n.threshold, ' ', n.value, ' ', n.left, ' ',
             n.right, '\n');
  }
}

bool DeserializeTree(TextReader* in, DecisionTreeRegressor* tree) {
  if (!ReadHeader(in, "tree")) return false;
  size_t count = 0;
  if (!in->Get(&count) || count > 10'000'000) return false;
  std::vector<DecisionTreeRegressor::Node> nodes(count);
  for (auto& n : nodes) {
    if (!in->Get(&n.feature, &n.threshold, &n.value, &n.left, &n.right)) {
      return false;
    }
    long max_id = static_cast<long>(count);
    if (n.left >= max_id || n.right >= max_id) return false;
    if (n.feature >= 0 && (n.left < 0 || n.right < 0)) return false;
  }
  tree->set_nodes(std::move(nodes));
  return true;
}

void SerializeForest(const RandomForestRegressor& forest, TextWriter* out) {
  WriteHeader(out, "forest");
  out->Put(forest.trees().size(), '\n');
  for (const auto& t : forest.trees()) SerializeTree(t, out);
}

bool DeserializeForest(TextReader* in, RandomForestRegressor* forest) {
  if (!ReadHeader(in, "forest")) return false;
  size_t count = 0;
  if (!in->Get(&count) || count > 100'000) return false;
  std::vector<DecisionTreeRegressor> trees(count);
  for (auto& t : trees) {
    if (!DeserializeTree(in, &t)) return false;
  }
  forest->set_trees(std::move(trees));
  return true;
}

void SerializeGbdt(const GbdtRegressor& gbdt, TextWriter* out) {
  WriteHeader(out, "gbdt");
  out->Put(gbdt.base_prediction(), ' ', gbdt.learning_rate(), ' ',
           gbdt.trees().size(), '\n');
  for (const auto& t : gbdt.trees()) SerializeTree(t, out);
}

bool DeserializeGbdt(TextReader* in, GbdtRegressor* gbdt) {
  if (!ReadHeader(in, "gbdt")) return false;
  double base = 0.0, lr = 0.0;
  size_t count = 0;
  if (!in->Get(&base, &lr, &count) || count > 100'000) return false;
  std::vector<DecisionTreeRegressor> trees(count);
  for (auto& t : trees) {
    if (!DeserializeTree(in, &t)) return false;
  }
  gbdt->RestoreState(base, lr, std::move(trees));
  return true;
}

bool SaveForestToFile(const RandomForestRegressor& forest, const std::string& path) {
  AtomicFileWriter w(path);
  if (!w.ok()) return false;
  TextWriter out;
  SerializeForest(forest, &out);
  w.stream() << out.str();
  return w.Commit();
}

bool LoadForestFromFile(const std::string& path, RandomForestRegressor* forest) {
  std::string text;
  if (!ReadWholeFile(path, &text)) return false;
  TextReader in(text);
  return DeserializeForest(&in, forest);
}

bool SaveGbdtToFile(const GbdtRegressor& gbdt, const std::string& path) {
  AtomicFileWriter w(path);
  if (!w.ok()) return false;
  TextWriter out;
  SerializeGbdt(gbdt, &out);
  w.stream() << out.str();
  return w.Commit();
}

bool LoadGbdtFromFile(const std::string& path, GbdtRegressor* gbdt) {
  std::string text;
  if (!ReadWholeFile(path, &text)) return false;
  TextReader in(text);
  return DeserializeGbdt(&in, gbdt);
}

}  // namespace lite
