// Per-process scratch directories for tests.
//
// gtest_discover_tests runs every TEST as its own process, so a suite's
// SetUpTestSuite (and a test's fixed scratch path) runs concurrently in
// sibling processes under `ctest -j`. A fixed path such as
// TempDir() + "/serving_snapshot" lets one process remove_all the directory
// while another is still loading from it. ScopedTempDir gives every
// instance its own directory — <tmp>/lite_<name>_<pid>_<n> — and removes it
// on destruction.
#ifndef LITE_TESTKIT_TEMP_DIR_H_
#define LITE_TESTKIT_TEMP_DIR_H_

#include <string>
#include <string_view>

namespace lite::testkit {

class ScopedTempDir {
 public:
  /// Creates a fresh, empty directory under $TEST_TMPDIR (else the system
  /// temp directory). `name` labels it for humans; the pid and a
  /// per-process counter make it unique.
  explicit ScopedTempDir(std::string_view name);
  /// Removes the directory and everything under it (errors ignored).
  ~ScopedTempDir();

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  /// path() + "/" + leaf; nothing is created.
  std::string Sub(std::string_view leaf) const;

 private:
  std::string path_;
};

}  // namespace lite::testkit

#endif  // LITE_TESTKIT_TEMP_DIR_H_
