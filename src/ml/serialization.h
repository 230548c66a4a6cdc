// Text (de)serialization for the classical models, enabling LiteSystem
// snapshots: a production deployment trains offline once and ships the
// artifacts; the online recommender loads them without re-running the
// corpus collection.
//
// Format: line-oriented, human-inspectable, versioned ("litemodel v1 <kind>"
// header), numbers through util/text_codec.h. Readers are strict — any
// structural mismatch or malformed number returns false and leaves the
// output object untouched. Documents concatenate: a forest is its header
// followed by its trees, and one reader can walk several documents.
#ifndef LITE_ML_SERIALIZATION_H_
#define LITE_ML_SERIALIZATION_H_

#include <string>

#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "util/text_codec.h"

namespace lite {

/// Writes/reads a single regression tree.
void SerializeTree(const DecisionTreeRegressor& tree, TextWriter* out);
bool DeserializeTree(TextReader* in, DecisionTreeRegressor* tree);

/// Writes/reads a random forest (options subset + trees).
void SerializeForest(const RandomForestRegressor& forest, TextWriter* out);
bool DeserializeForest(TextReader* in, RandomForestRegressor* forest);

/// Writes/reads a GBDT ensemble (base prediction, learning rate, trees).
void SerializeGbdt(const GbdtRegressor& gbdt, TextWriter* out);
bool DeserializeGbdt(TextReader* in, GbdtRegressor* gbdt);

/// File-level helpers; return false on I/O or format errors.
bool SaveForestToFile(const RandomForestRegressor& forest, const std::string& path);
bool LoadForestFromFile(const std::string& path, RandomForestRegressor* forest);
bool SaveGbdtToFile(const GbdtRegressor& gbdt, const std::string& path);
bool LoadGbdtFromFile(const std::string& path, GbdtRegressor* gbdt);

}  // namespace lite

#endif  // LITE_ML_SERIALIZATION_H_
