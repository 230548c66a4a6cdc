#include "testkit/temp_dir.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "util/logging.h"

namespace lite::testkit {

namespace {

std::filesystem::path TempRoot() {
  const char* env = std::getenv("TEST_TMPDIR");
  if (env != nullptr && *env != '\0') return env;
  return std::filesystem::temp_directory_path();
}

}  // namespace

ScopedTempDir::ScopedTempDir(std::string_view name) {
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path dir =
      TempRoot() / ("lite_" + std::string(name) + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // a recycled pid's leftovers.
  std::filesystem::create_directories(dir, ec);
  LITE_CHECK(!ec) << "ScopedTempDir: cannot create " << dir.string() << ": "
                  << ec.message();
  path_ = dir.string();
}

ScopedTempDir::~ScopedTempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string ScopedTempDir::Sub(std::string_view leaf) const {
  return path_ + "/" + std::string(leaf);
}

}  // namespace lite::testkit
